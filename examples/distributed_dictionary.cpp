// Distribution (§1): "calls to the entry procedures of an object are
// implemented as remote procedure calls; a user can further communicate with
// an executing remote procedure using message passing on point-to-point
// channels."
//
// Three modes share this binary:
//
//   $ example_distributed_dictionary
//       The original single-process demo on the *simulated* network: a
//       dictionary object with its combining manager on a server node,
//       clients calling Search over RPC, channels as parameters, a lossy
//       phase under retries, and a multiactive phase.
//
//   $ example_distributed_dictionary driver <n> [--smoke]
//       Real multi-process deployment: spawns <n> dictionary server
//       *processes* (one OS process per node, Unix-domain sockets between
//       them via net::SocketTransport) and drives them by object name. The
//       driver deliberately mis-seeds one route to show a kWrongNode
//       redirect healing a stale directory replica, runs every insert under
//       an aggressive RetryPolicy, and asserts exactly-once execution from
//       the servers' own counters. --smoke shrinks the workload (ctest).
//
//   $ example_distributed_dictionary serve <i> <n> <dir>
//       Internal: server process i of n (started by the driver).
//
//   $ ALPS_SOAK=1 example_distributed_dictionary chaos <n> [--ci]
//       Chaos/soak harness (DESIGN.md §4.11): spawns <n> servers, then
//       kill -9s one mid-burst and restarts it on the same address, adds a
//       brand-new server to the live cluster, and evicts + re-admits a
//       healthy peer — all while a driver pushes inserts under aggressive
//       retries. Each server keeps a durable append-only key log, so the
//       harness can assert exactly-once convergence from the servers' own
//       counters even across the kill. An impostor connection (raw garbage
//       bytes) is thrown at the driver's listener first and must be
//       rejected before any frame is dispatched. Without ALPS_SOAK=1 the
//       mode prints [SKIP-SOAK] and exits 77 (ctest SKIP_RETURN_CODE).
//       --ci shrinks the workload to stay comfortably under a minute.
//
//   $ example_distributed_dictionary chaos-serve <i> <dir>
//       Internal: chaos server process i (started by the chaos driver).
//
//   $ ALPS_SOAK=1 example_distributed_dictionary shard-soak [--ci]
//       Shard-migration soak (DESIGN.md §4.12): four server processes host
//       one *sharded* named object. The driver inserts a keyed stream while
//       the shard map is split live, 2 → 3 → 4 homes, each split installed
//       on the servers mid-burst while the driver's cached map stays stale.
//       Convergence is per-key through shard-precise kWrongNode redirects;
//       the exactly-once audit reads each server's durable key log counters
//       (every key applied on exactly one server, zero re-executions).
//       Without ALPS_SOAK=1 prints [SKIP-SOAK] and exits 77.
//
//   $ example_distributed_dictionary shard-serve <i> <dir>
//       Internal: shard server process i (started by the shard-soak driver).
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "apps/dictionary.h"
#include "core/alps.h"
#include "net/net.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/sync.h"

namespace {

using namespace alps;

// ---- multi-process cluster plumbing ----------------------------------------

/// NodeId 0 is the driver; servers are 1..n. Every process gets the same
/// static cluster map — the unix socket path of each node's listener.
net::SocketTransportOptions cluster_options(net::NodeId self, int n,
                                            const std::string& dir) {
  net::SocketTransportOptions opts;
  opts.local_node = self;
  opts.local_name = self == 0 ? "driver" : "server-" + std::to_string(self);
  auto path_of = [&dir](net::NodeId id) {
    return dir + "/" + std::to_string(id) + ".sock";
  };
  opts.listen = net::SocketAddress::unix_path(path_of(self));
  for (net::NodeId id = 0; id <= static_cast<net::NodeId>(n); ++id) {
    if (id == self) continue;
    opts.peers.push_back(net::SocketPeer{
        id, id == 0 ? "driver" : "server-" + std::to_string(id),
        net::SocketAddress::unix_path(path_of(id))});
  }
  return opts;
}

std::string dict_name(int i) { return "Dict-" + std::to_string(i); }
std::string ctl_name(int i) { return "Ctl-" + std::to_string(i); }

/// Server process `i` of `n`: hosts one dictionary plus a control object
/// (Stats for the exactly-once audit, Shutdown to exit). Blocks until the
/// driver calls Shutdown.
int run_server(int i, int n, const std::string& dir) {
  net::SocketTransport transport(cluster_options(i, n, dir));
  net::Node node(transport, "server-" + std::to_string(i));

  apps::Dictionary dict(support::make_word_list(16),
                        {.object_name = dict_name(i)});
  node.host(dict.object());

  support::Event quit;
  Object ctl(ctl_name(i));
  auto stats = ctl.define_entry({.name = "Stats", .params = 0, .results = 2});
  ctl.implement(stats, [&dict](BodyCtx&) -> ValueList {
    const auto s = dict.stats();
    return {Value(static_cast<std::int64_t>(s.inserts)),
            Value(static_cast<std::int64_t>(s.requests))};
  });
  auto shutdown =
      ctl.define_entry({.name = "Shutdown", .params = 0, .results = 0});
  ctl.implement(shutdown, [&quit](BodyCtx&) -> ValueList {
    quit.set();
    return {};
  });
  ctl.start();
  node.host(ctl);

  // This process's directory replica: its own objects registered via host();
  // every sibling's placement comes from the same static config the driver
  // uses. (A stale entry here is not fatal — kWrongNode redirects heal it.)
  for (int j = 1; j <= n; ++j) {
    if (j == i) continue;
    transport.directory().add(dict_name(j), static_cast<net::NodeId>(j));
    transport.directory().add(ctl_name(j), static_cast<net::NodeId>(j));
  }

  quit.wait();
  // quit is set from inside the Shutdown body; its response frame is posted
  // only after the body returns. Give the reply a moment to be enqueued,
  // then drain the wire before tearing down.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  transport.wait_quiescent();
  ctl.stop();
  return 0;
}

/// Driver: spawns n server processes, then exercises the cluster over real
/// sockets — name-based calls, a deliberate stale route healed by
/// kWrongNode, aggressive retries, and an exactly-once audit against the
/// servers' own insert counters. Returns nonzero on any failed check.
int run_driver(int n, bool smoke) {
  char dir_template[] = "/tmp/alps-dict-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string dir = dir_template;

  std::vector<pid_t> children;
  for (int i = 1; i <= n; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::execl("/proc/self/exe", "example_distributed_dictionary", "serve",
              std::to_string(i).c_str(), std::to_string(n).c_str(),
              dir.c_str(), static_cast<char*>(nullptr));
      std::perror("execl");
      std::_Exit(127);
    }
    children.push_back(pid);
  }

  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "FAIL: %s\n", what);
    }
    return ok;
  };

  {
    // Scope the transport so it tears down before waitpid.
    net::SocketTransport transport(cluster_options(0, n, dir));
    net::Node driver(transport, "driver");

    // Static placement knowledge — with one deliberate lie: the last
    // dictionary is claimed to live on node 1. The first call to it will
    // land wrong, earn a kWrongNode redirect from node 1's honest replica,
    // and heal this process's route cache in-band.
    for (int i = 1; i <= n; ++i) {
      const bool lie = n >= 2 && i == n;
      transport.directory().add(dict_name(i),
                                static_cast<net::NodeId>(lie ? 1 : i));
      transport.directory().add(ctl_name(i), static_cast<net::NodeId>(i));
    }

    // Servers are up once their listeners exist.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (int i = 1; i <= n; ++i) {
      const auto sock = dir + "/" + std::to_string(i) + ".sock";
      while (!std::filesystem::exists(sock)) {
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "server %d never came up\n", i);
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }

    // Aggressive retries: a 10 ms attempt timeout forces retransmissions
    // across connect latency and scheduling noise — which is the point: the
    // per-server insert counters must still show exactly one execution per
    // key (at-most-once dedup over a real transport).
    net::CallOptions reliable;
    net::RetryPolicy policy;
    policy.attempt_timeout = std::chrono::milliseconds(10);
    reliable.retry = policy;
    reliable.deadline = std::chrono::seconds(30);

    const int keys_per_server = smoke ? 24 : 200;
    int insert_failures = 0;
    for (int i = 1; i <= n; ++i) {
      for (int k = 0; k < keys_per_server; ++k) {
        const std::string key =
            "key-" + std::to_string(i) + "-" + std::to_string(k);
        auto r = driver.call(dict_name(i), "Insert",
                             vals(key, "value of " + key), reliable);
        if (!r.ok()) {
          ++insert_failures;
          std::fprintf(stderr, "insert %s: %s\n", key.c_str(),
                       r.error().what());
        }
      }
    }
    check(insert_failures == 0, "every insert completes over the sockets");

    // Redirect audit: the lie about Dict-n must have been corrected by a
    // kWrongNode hop, not by luck.
    if (n >= 2) {
      check(driver.client_stats().redirects >= 1,
            "stale replica heals via kWrongNode redirect");
      check(driver.cached_route(dict_name(n)) ==
                std::optional<net::NodeId>(static_cast<net::NodeId>(n)),
            "route cache learns the true home");
    }

    // Read-back round-trip through each server.
    for (int i = 1; i <= n; ++i) {
      const std::string key = "key-" + std::to_string(i) + "-0";
      auto r = driver.call(dict_name(i), "Search", vals(key), reliable);
      check(r.ok() && r.value()[0].as_string() == "value of " + key,
            "search returns the inserted value");
    }

    // Exactly-once audit: each server's own insert counter must equal the
    // number of distinct keys sent to it, no matter how many retransmits
    // the aggressive policy produced.
    std::uint64_t retransmits = driver.client_stats().retransmits;
    for (int i = 1; i <= n; ++i) {
      auto r = driver.call(ctl_name(i), "Stats", {}, reliable);
      if (!check(r.ok(), "control Stats call completes")) continue;
      const auto inserts = r.value()[0].as_int();
      if (!check(inserts == keys_per_server,
                 "server executed each insert exactly once")) {
        std::fprintf(stderr, "  server %d: %lld inserts for %d keys\n", i,
                     static_cast<long long>(inserts), keys_per_server);
      }
    }
    std::printf(
        "multi-process: %d servers x %d keys, %llu retransmits, "
        "exactly-once %s\n",
        n, keys_per_server, static_cast<unsigned long long>(retransmits),
        failures == 0 ? "held" : "VIOLATED");

    for (int i = 1; i <= n; ++i) {
      // Shutdown responses race process exit; tolerate a lost reply.
      net::CallOptions lenient;
      lenient.deadline = std::chrono::seconds(5);
      lenient.retry = net::RetryPolicy{};
      driver.call(ctl_name(i), "Shutdown", {}, lenient);
    }
  }

  for (pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      std::perror("waitpid");
      ++failures;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "server pid %d exited abnormally (status %d)\n",
                   static_cast<int>(pid), status);
      ++failures;
    }
  }
  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}

// ---- chaos/soak harness (DESIGN.md §4.11) ----------------------------------

constexpr const char* kChaosToken = "alps-chaos-demo";

std::string chaos_obj_name(int i) { return "CDict-" + std::to_string(i); }

std::string chaos_sock(const std::string& dir, int id) {
  return dir + "/" + std::to_string(id) + ".sock";
}

/// Chaos server `i`: hosts one object with Insert/Stats/Shutdown. Applied
/// keys go to a durable O_APPEND log *before* the in-memory seen-set, so a
/// kill -9 between the two replays the key on restart (counted as a
/// re-execution, never a loss). Only the driver (node 0) is a peer.
int run_chaos_server(int i, const std::string& dir) {
  net::SocketTransportOptions opts;
  opts.local_node = static_cast<net::NodeId>(i);
  opts.local_name = "chaos-server-" + std::to_string(i);
  // Listen on a hidden path first and atomically rename to the advertised
  // one only after the object is hosted: a call that races server startup
  // then fails at connect (retried silently by the sender's backoff)
  // instead of reaching a transport with no object behind it (a typed,
  // non-retryable "no such object").
  opts.listen = net::SocketAddress::unix_path(chaos_sock(dir, i) + ".tmp");
  opts.peers.push_back(
      net::SocketPeer{0, "driver", net::SocketAddress::unix_path(
                                       chaos_sock(dir, 0))});
  opts.cluster_token = kChaosToken;
  net::SocketTransport transport(opts);
  net::Node node(transport, opts.local_name);

  // Crash recovery: replay the key log a dead predecessor left behind.
  const std::string log_path = dir + "/keys-" + std::to_string(i) + ".log";
  std::unordered_set<std::string> seen;
  {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) seen.insert(line);
    }
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    std::perror("open key log");
    return 1;
  }

  // Entry bodies of a manager-less object run concurrently on the pooled
  // executor, so the applied-key state is mutex-guarded.
  std::mutex mu;
  std::uint64_t requests = 0, reexec = 0;
  support::Event quit;
  Object obj(chaos_obj_name(i));
  auto insert = obj.define_entry({.name = "Insert", .params = 1, .results = 1});
  obj.implement(insert, [&](BodyCtx& ctx) -> ValueList {
    const std::string key = ctx.param(0).as_string();
    std::scoped_lock lock(mu);
    ++requests;
    if (seen.count(key) != 0) {
      // A retransmit that outlived the RPC dedup table (it died with the
      // killed incarnation) re-executes the body; the durable log makes
      // that visible-but-idempotent instead of a double insert.
      ++reexec;
      return {Value(std::int64_t(0))};
    }
    const std::string rec = key + "\n";
    if (::write(log_fd, rec.data(), rec.size()) !=
        static_cast<ssize_t>(rec.size())) {
      std::perror("append key log");
    }
    seen.insert(key);
    return {Value(std::int64_t(1))};
  });
  auto stats = obj.define_entry({.name = "Stats", .params = 0, .results = 3});
  obj.implement(stats, [&](BodyCtx&) -> ValueList {
    std::scoped_lock lock(mu);
    return {Value(static_cast<std::int64_t>(seen.size())),
            Value(static_cast<std::int64_t>(requests)),
            Value(static_cast<std::int64_t>(reexec))};
  });
  auto shutdown =
      obj.define_entry({.name = "Shutdown", .params = 0, .results = 0});
  obj.implement(shutdown, [&quit](BodyCtx&) -> ValueList {
    quit.set();
    return {};
  });
  obj.start();
  node.host(obj);
  std::filesystem::rename(chaos_sock(dir, i) + ".tmp", chaos_sock(dir, i));

  quit.wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  transport.wait_quiescent();
  obj.stop();
  ::close(log_fd);
  return 0;
}

/// Chaos driver: the scripted failure sequence from DESIGN.md §4.11 —
/// impostor rejection, kill -9 + same-address restart mid-burst, a server
/// added to the live cluster, a healthy peer evicted and re-admitted —
/// with an exactly-once audit against each server's durable key counters.
int run_chaos(int n, bool ci) {
  if (std::getenv("ALPS_SOAK") == nullptr) {
    std::printf("[SKIP-SOAK] ALPS_SOAK=1 not set; skipping chaos soak\n");
    return 77;  // ctest SKIP_RETURN_CODE
  }
  if (n < 2) {
    std::fprintf(stderr, "chaos needs at least two servers\n");
    return 2;
  }
  char dir_template[] = "/tmp/alps-chaos-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string dir = dir_template;

  auto spawn = [&dir](int i) -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl("/proc/self/exe", "example_distributed_dictionary",
              "chaos-serve", std::to_string(i).c_str(), dir.c_str(),
              static_cast<char*>(nullptr));
      std::perror("execl");
      std::_Exit(127);
    }
    return pid;
  };
  std::map<int, pid_t> pids;
  for (int i = 1; i <= n; ++i) pids[i] = spawn(i);

  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "FAIL: %s\n", what);
    }
    return ok;
  };

  const int victim = 1;    // kill -9'ed mid-burst, restarted on same address
  const int churned = 2;   // evicted from the live cluster, then re-admitted
  const int added = n + 1; // joins the live cluster mid-run
  const int K = ci ? 250 : 1000;  // keys per server

  {
    net::SocketTransportOptions opts;
    opts.local_node = 0;
    opts.local_name = "chaos-driver";
    opts.listen = net::SocketAddress::unix_path(chaos_sock(dir, 0));
    for (int i = 1; i <= n; ++i) {
      opts.peers.push_back(net::SocketPeer{
          static_cast<net::NodeId>(i), "chaos-server-" + std::to_string(i),
          net::SocketAddress::unix_path(chaos_sock(dir, i))});
    }
    opts.cluster_token = kChaosToken;
    net::SocketTransport transport(opts);
    net::Node driver(transport, "chaos-driver");
    for (int i = 1; i <= n; ++i) {
      transport.directory().add(chaos_obj_name(i),
                                static_cast<net::NodeId>(i));
    }
    std::uint64_t peers_added = 0, peers_removed = 0;
    const auto member_token = transport.add_membership_listener(
        [&](net::NodeId, bool was_added) {
          if (was_added) ++peers_added; else ++peers_removed;
        });

    // ---- impostor: raw garbage at the driver's own listener must be
    // rejected by the HELLO gate before any frame is dispatched.
    const auto rejected_before = support::net_health().handshake_rejected.get();
    {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, chaos_sock(dir, 0).c_str(),
                   sizeof(addr.sun_path) - 1);
      if (check(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                "impostor can reach the listener")) {
        const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
        (void)::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL);
        timeval tv{2, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        char buf[64];
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
      }
      ::close(fd);
    }
    check(support::net_health().handshake_rejected.get() > rejected_before,
          "impostor handshake rejected");
    check(transport.transport_stats().frames_delivered == 0,
          "impostor delivered no frames");

    net::CallOptions reliable;
    net::RetryPolicy policy;
    policy.attempt_timeout = std::chrono::milliseconds(15);
    reliable.retry = policy;
    reliable.deadline = std::chrono::seconds(60);

    auto key_of = [](int i, int k) {
      return "k-" + std::to_string(i) + "-" + std::to_string(k);
    };
    std::map<int, int> next;  // next unissued key index per server
    auto insert_upto = [&](int i, int upto) {
      for (; next[i] < upto; ++next[i]) {
        auto r = driver.call(chaos_obj_name(i), "Insert",
                             vals(key_of(i, next[i])), reliable);
        if (!check(r.ok(), "insert completes under chaos")) {
          std::fprintf(stderr, "  %s: %s\n", key_of(i, next[i]).c_str(),
                       r.error().what());
        }
      }
    };

    // Phase A: warm the cluster — 40% of each original server's keys.
    const int warm = (K * 2) / 5;
    for (int i = 1; i <= n; ++i) insert_upto(i, warm);

    // Phase B: kill -9 the victim while a burst of calls is in flight,
    // restart it on the same address. Retries ride the retransmit queue
    // across the blip; the durable key log absorbs any re-executions.
    const int burst_n = ci ? 60 : 200;
    auto proxy = driver.remote(chaos_obj_name(victim));
    std::vector<net::RpcHandle> burst;
    burst.reserve(burst_n);
    for (int b = 0; b < burst_n; ++b) {
      burst.push_back(proxy.async_call(
          "Insert", vals(key_of(victim, next[victim] + b)), reliable));
    }
    ::kill(pids[victim], SIGKILL);
    int status = 0;
    ::waitpid(pids[victim], &status, 0);
    check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "victim died by SIGKILL");
    // A real downtime window so retransmits actually queue against a dead
    // address before the same-address restart.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pids[victim] = spawn(victim);
    int burst_ok = 0;
    for (auto& h : burst) {
      if (h.result().ok()) ++burst_ok;
    }
    next[victim] += burst_n;
    check(burst_ok == burst_n,
          "every in-flight call completes across the kill");

    // Phase C1: grow the live cluster — admit a brand-new server and give
    // it a full complement of keys while everything else keeps running.
    transport.add_peer(static_cast<net::NodeId>(added),
                       "chaos-server-" + std::to_string(added),
                       "unix:" + chaos_sock(dir, added));
    transport.directory().add(chaos_obj_name(added),
                              static_cast<net::NodeId>(added));
    pids[added] = spawn(added);
    insert_upto(added, K);

    // Phase C2: evict a healthy peer live — calls to it must fail typed
    // (its directory entries are purged), not hang — then re-admit it.
    check(transport.remove_peer(static_cast<net::NodeId>(churned)),
          "live eviction succeeds");
    net::CallOptions fast;
    fast.deadline = std::chrono::seconds(1);
    auto evicted = driver.call(chaos_obj_name(churned), "Insert",
                               vals(std::string("evicted-probe")), fast);
    check(!evicted.ok() &&
              evicted.error().cause() == net::RpcCause::kObjectNotFound,
          "call to an evicted peer fails typed, not by timeout");
    transport.add_peer(static_cast<net::NodeId>(churned),
                       "chaos-server-" + std::to_string(churned),
                       "unix:" + chaos_sock(dir, churned));
    transport.directory().add(chaos_obj_name(churned),
                              static_cast<net::NodeId>(churned));

    // Phase D: drain the remaining keys everywhere, including the
    // restarted victim and the re-admitted peer.
    for (int i = 1; i <= n; ++i) insert_upto(i, K);

    // Exactly-once audit from the servers' own durable counters: every
    // server holds exactly its K distinct keys; servers that were never
    // killed saw zero re-executions (the RPC dedup table alone sufficed).
    std::uint64_t total_distinct = 0;
    for (int i = 1; i <= added; ++i) {
      auto r = driver.call(chaos_obj_name(i), "Stats", {}, reliable);
      if (!check(r.ok(), "Stats call completes")) continue;
      const auto distinct = r.value()[0].as_int();
      const auto reexec = r.value()[2].as_int();
      total_distinct += static_cast<std::uint64_t>(distinct);
      if (!check(distinct == K, "server holds exactly K distinct keys")) {
        std::fprintf(stderr, "  server %d: %lld distinct for %d keys\n", i,
                     static_cast<long long>(distinct), K);
      }
      if (i != victim) {
        check(reexec == 0, "never-killed server saw no re-executions");
      }
    }
    check(total_distinct == static_cast<std::uint64_t>(K) * (n + 1),
          "cluster converged on every issued key exactly once");
    check(peers_added == 2 && peers_removed == 1,
          "membership listener saw the add/evict/re-admit churn");

    const auto ts = transport.transport_stats();
    std::printf(
        "chaos: %d+1 servers x %d keys, kill -9 + restart survived, "
        "%llu retransmits, %llu frames requeued, %llu handshake rejects, "
        "exactly-once %s\n",
        n, K,
        static_cast<unsigned long long>(driver.client_stats().retransmits),
        static_cast<unsigned long long>(ts.frames_requeued),
        static_cast<unsigned long long>(
            support::net_health().handshake_rejected.get()),
        failures == 0 ? "held" : "VIOLATED");

    transport.remove_membership_listener(member_token);
    for (int i = 1; i <= added; ++i) {
      net::CallOptions lenient;
      lenient.deadline = std::chrono::seconds(5);
      lenient.retry = net::RetryPolicy{};
      driver.call(chaos_obj_name(i), "Shutdown", {}, lenient);
    }
  }

  for (const auto& [i, pid] : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      std::perror("waitpid");
      ++failures;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "chaos server %d exited abnormally (status %d)\n",
                   i, status);
      ++failures;
    }
  }
  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}

// ---- shard-migration soak (DESIGN.md §4.12) --------------------------------

constexpr const char* kShardToken = "alps-shard-soak";
constexpr int kShardInitial = 2;  ///< homes in the seed map
constexpr int kShardMax = 4;      ///< homes after both live splits

std::string shard_ctl_name(int i) { return "SCtl-" + std::to_string(i); }

/// Shard server `i`: hosts its slice of the sharded object "SDict" plus a
/// per-server control object. Applied keys go to a durable O_APPEND log
/// before the in-memory seen-set (same recovery discipline as the chaos
/// server), so the driver can audit exactly-once from the servers' own
/// counters across splits. SetMap(n) installs the n-home map {1..n} in this
/// process's directory replica — the shard-split signal; from then on this
/// server answers shard-precise kWrongNode redirects for keys it no longer
/// owns.
int run_shard_server(int i, const std::string& dir) {
  net::SocketTransportOptions opts;
  opts.local_node = static_cast<net::NodeId>(i);
  opts.local_name = "shard-server-" + std::to_string(i);
  // Hidden listen path, atomically renamed once everything is hosted (see
  // run_chaos_server for why).
  opts.listen = net::SocketAddress::unix_path(chaos_sock(dir, i) + ".tmp");
  opts.peers.push_back(net::SocketPeer{
      0, "driver", net::SocketAddress::unix_path(chaos_sock(dir, 0))});
  opts.cluster_token = kShardToken;
  net::SocketTransport transport(opts);
  net::Node node(transport, opts.local_name);

  const std::string log_path = dir + "/keys-" + std::to_string(i) + ".log";
  std::unordered_set<std::string> seen;
  {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) seen.insert(line);
    }
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    std::perror("open key log");
    return 1;
  }

  std::mutex mu;
  std::uint64_t requests = 0, reexec = 0;
  support::Event quit;
  Object obj("SDict");
  auto insert = obj.define_entry({.name = "Insert", .params = 1, .results = 1});
  obj.implement(insert, [&](BodyCtx& ctx) -> ValueList {
    const std::string key = ctx.param(0).as_string();
    std::scoped_lock lock(mu);
    ++requests;
    if (seen.count(key) != 0) {
      ++reexec;
      return {Value(std::int64_t(0))};
    }
    const std::string rec = key + "\n";
    if (::write(log_fd, rec.data(), rec.size()) !=
        static_cast<ssize_t>(rec.size())) {
      std::perror("append key log");
    }
    seen.insert(key);
    return {Value(std::int64_t(1))};
  });
  obj.start();
  node.host(obj);

  Object ctl(shard_ctl_name(i));
  auto set_map =
      ctl.define_entry({.name = "SetMap", .params = 1, .results = 0});
  ctl.implement(set_map, [&transport](BodyCtx& ctx) -> ValueList {
    // Install the n-home map {1..n}. New homes receive it before old homes
    // (driver's ordering), so by the time an old home starts redirecting a
    // moved key its new shard already accepts it.
    const auto n = ctx.param(0).as_int();
    std::vector<net::NodeId> homes;
    for (std::int64_t h = 1; h <= n; ++h) {
      homes.push_back(static_cast<net::NodeId>(h));
    }
    transport.directory().add_sharded("SDict", std::move(homes));
    return {};
  });
  auto stats = ctl.define_entry({.name = "Stats", .params = 0, .results = 3});
  ctl.implement(stats, [&](BodyCtx&) -> ValueList {
    std::scoped_lock lock(mu);
    return {Value(static_cast<std::int64_t>(seen.size())),
            Value(static_cast<std::int64_t>(requests)),
            Value(static_cast<std::int64_t>(reexec))};
  });
  auto shutdown =
      ctl.define_entry({.name = "Shutdown", .params = 0, .results = 0});
  ctl.implement(shutdown, [&quit](BodyCtx&) -> ValueList {
    quit.set();
    return {};
  });
  ctl.start();
  node.host(ctl);

  // Seed this replica's shard map after host() (which registered "SDict"
  // single-homed here): the initial truth is kShardInitial homes, whether or
  // not this server is among them yet.
  {
    std::vector<net::NodeId> homes;
    for (int h = 1; h <= kShardInitial; ++h) {
      homes.push_back(static_cast<net::NodeId>(h));
    }
    transport.directory().add_sharded("SDict", std::move(homes));
  }
  std::filesystem::rename(chaos_sock(dir, i) + ".tmp", chaos_sock(dir, i));

  quit.wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  transport.wait_quiescent();
  ctl.stop();
  obj.stop();
  ::close(log_fd);
  return 0;
}

/// Shard-soak driver: inserts a keyed stream against the sharded name while
/// the map is split live 2 → 3 → 4 homes under in-flight traffic, then
/// audits exactly-once convergence from the servers' durable counters. The
/// driver's own map stays deliberately stale across both splits — every
/// moved key's first call earns a shard-precise kWrongNode redirect that
/// patches exactly one slot of its cached map.
int run_shard_soak(bool ci) {
  if (std::getenv("ALPS_SOAK") == nullptr) {
    std::printf("[SKIP-SOAK] ALPS_SOAK=1 not set; skipping shard soak\n");
    return 77;  // ctest SKIP_RETURN_CODE
  }
  char dir_template[] = "/tmp/alps-shard-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string dir = dir_template;

  std::map<int, pid_t> pids;
  for (int i = 1; i <= kShardMax; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl("/proc/self/exe", "example_distributed_dictionary",
              "shard-serve", std::to_string(i).c_str(), dir.c_str(),
              static_cast<char*>(nullptr));
      std::perror("execl");
      std::_Exit(127);
    }
    pids[i] = pid;
  }

  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "FAIL: %s\n", what);
    }
    return ok;
  };

  const int K = ci ? 600 : 2400;        // total keys
  const int burst_n = ci ? 80 : 240;    // in-flight calls across each split

  {
    net::SocketTransportOptions opts;
    opts.local_node = 0;
    opts.local_name = "shard-driver";
    opts.listen = net::SocketAddress::unix_path(chaos_sock(dir, 0));
    for (int i = 1; i <= kShardMax; ++i) {
      opts.peers.push_back(net::SocketPeer{
          static_cast<net::NodeId>(i), "shard-server-" + std::to_string(i),
          net::SocketAddress::unix_path(chaos_sock(dir, i))});
    }
    opts.cluster_token = kShardToken;
    net::SocketTransport transport(opts);
    net::Node driver(transport, "shard-driver");
    {
      std::vector<net::NodeId> homes;
      for (int h = 1; h <= kShardInitial; ++h) {
        homes.push_back(static_cast<net::NodeId>(h));
      }
      transport.directory().add_sharded("SDict", std::move(homes));
    }
    for (int i = 1; i <= kShardMax; ++i) {
      transport.directory().add(shard_ctl_name(i),
                                static_cast<net::NodeId>(i));
    }

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (int i = 1; i <= kShardMax; ++i) {
      while (!std::filesystem::exists(chaos_sock(dir, i))) {
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "shard server %d never came up\n", i);
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }

    net::CallOptions reliable;
    net::RetryPolicy policy;
    policy.attempt_timeout = std::chrono::milliseconds(15);
    reliable.retry = policy;
    reliable.deadline = std::chrono::seconds(60);

    auto key_of = [](int k) { return "sk-" + std::to_string(k); };
    int issued = 0;
    auto insert_upto = [&](int upto) {
      for (; issued < upto; ++issued) {
        auto r =
            driver.call("SDict", "Insert", vals(key_of(issued)), reliable);
        if (!check(r.ok(), "insert completes across the soak")) {
          std::fprintf(stderr, "  %s: %s\n", key_of(issued).c_str(),
                       r.error().what());
        }
      }
    };
    // Installs the n-home map on every server, newest first: a new home
    // accepts its shard before any old home starts redirecting into it.
    auto install_map = [&](int n) {
      for (int i = kShardMax; i >= 1; --i) {
        auto r = driver.call(shard_ctl_name(i), "SetMap",
                             vals(static_cast<std::int64_t>(n)), reliable);
        check(r.ok(), "SetMap reaches every server");
      }
    };
    // The live-split pattern: a burst of async inserts goes up against the
    // old map, the new map is installed while they are in flight, and every
    // call must still complete — moved keys through a redirect hop.
    auto split_under_burst = [&](int new_n) {
      auto proxy = driver.remote("SDict");
      std::vector<net::RpcHandle> burst;
      burst.reserve(burst_n);
      for (int b = 0; b < burst_n; ++b) {
        burst.push_back(
            proxy.async_call("Insert", vals(key_of(issued + b)), reliable));
      }
      install_map(new_n);
      int ok = 0;
      for (auto& h : burst) {
        if (h.result().ok()) ++ok;
      }
      issued += burst_n;
      check(ok == burst_n,
            "every in-flight insert completes across the split");
    };

    insert_upto((K * 2) / 5);     // warm: cached 2-home map established
    split_under_burst(3);         // live split 2 -> 3 mid-burst
    insert_upto((K * 7) / 10);    // stale slots heal one redirect per slot
    split_under_burst(4);         // live split 3 -> 4 mid-burst
    insert_upto(K);               // drain on the 4-home map

    check(driver.client_stats().redirects >= 1,
          "moved keys healed via shard-precise kWrongNode redirects");

    // Exactly-once audit from the servers' durable counters: the union of
    // per-server key logs is exactly the issued key set (each key applied on
    // one server), and no server ever re-executed an applied key.
    std::uint64_t total_distinct = 0, total_reexec = 0;
    for (int i = 1; i <= kShardMax; ++i) {
      auto r = driver.call(shard_ctl_name(i), "Stats", {}, reliable);
      if (!check(r.ok(), "Stats call completes")) continue;
      total_distinct += static_cast<std::uint64_t>(r.value()[0].as_int());
      total_reexec += static_cast<std::uint64_t>(r.value()[2].as_int());
      check(r.value()[0].as_int() > 0,
            "every home serves a non-empty shard after the splits");
    }
    check(total_distinct == static_cast<std::uint64_t>(issued),
          "union of shard key logs is exactly the issued key set");
    check(total_reexec == 0, "zero re-executions across both live splits");

    std::printf(
        "shard-soak: %d keys over 2->3->4 homes, %llu redirects, "
        "%llu retransmits, exactly-once %s\n",
        issued,
        static_cast<unsigned long long>(driver.client_stats().redirects),
        static_cast<unsigned long long>(driver.client_stats().retransmits),
        failures == 0 ? "held" : "VIOLATED");

    for (int i = 1; i <= kShardMax; ++i) {
      net::CallOptions lenient;
      lenient.deadline = std::chrono::seconds(5);
      lenient.retry = net::RetryPolicy{};
      driver.call(shard_ctl_name(i), "Shutdown", {}, lenient);
    }
  }

  for (const auto& [i, pid] : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      std::perror("waitpid");
      ++failures;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "shard server %d exited abnormally (status %d)\n",
                   i, status);
      ++failures;
    }
  }
  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}

// ---- original single-process demo on the simulated network -----------------

int run_sim_demo() {
  // A 3-node network with 200±100us link latency.
  net::Network network(net::LinkLatency{std::chrono::microseconds(200),
                                        std::chrono::microseconds(100)},
                       /*seed=*/7);
  net::Node server(network, "server");
  net::Node client_a(network, "client-a");
  net::Node client_b(network, "client-b");

  // The dictionary (manager, hidden array, combining) lives on the server.
  auto words = support::make_word_list(32);
  apps::Dictionary dict(words, {.search_max = 8,
                                .search_time = std::chrono::microseconds(500)});
  server.host(dict.object());

  // A side object demonstrating channels as RPC parameters.
  Object reporter("Reporter");
  EntryRef watch = reporter.define_entry({.name = "Watch", .params = 2, .results = 0});
  reporter.implement(watch, [](BodyCtx& ctx) -> ValueList {
    const auto n = ctx.param(0).as_int();
    const ChannelRef progress = ctx.param(1).as_channel();
    for (std::int64_t i = 1; i <= n; ++i) {
      progress->send(vals(i, n));  // streams across the simulated network
    }
    return {};
  });
  reporter.start();
  server.host(reporter);

  // Clients call by object *name* — host() registered "Dictionary" in the
  // cluster directory, so nobody needs to know which node it lives on
  // (location transparency, DESIGN.md §4.7). Frame batching coalesces the
  // burst of requests/responses on each link.
  client_a.set_batching({});  // defaults: envelopes of up to 8 frames
  client_b.set_batching({});
  server.set_batching({});
  auto remote_dict_a = client_a.remote("Dictionary");
  auto remote_dict_b = client_b.remote("Dictionary");

  support::ZipfGenerator zipf(words.size(), 1.1, 3);
  std::vector<net::RpcHandle> calls;
  for (int i = 0; i < 30; ++i) {
    auto& proxy = (i % 2 == 0) ? remote_dict_a : remote_dict_b;
    calls.push_back(proxy.async_call("Search", vals(words[zipf.next()]), {}));
  }
  for (auto& c : calls) {
    auto r = c.result();
    std::printf("remote search -> %s\n",
                r.ok() ? r.value()[0].as_string().c_str() : r.error().what());
  }
  const auto s = dict.stats();
  std::printf("server combined %llu of %llu remote requests\n",
              static_cast<unsigned long long>(s.combined),
              static_cast<unsigned long long>(s.requests));
  const auto ab = client_a.batch_stats();
  std::printf("client-a batching: %llu frames flushed as %llu batches + "
              "%llu singles\n",
              static_cast<unsigned long long>(ab.frames_enqueued),
              static_cast<unsigned long long>(ab.batches_posted),
              static_cast<unsigned long long>(ab.singles_posted));

  // Channel across the network: client passes a reply channel to the
  // executing remote procedure.
  ChannelRef progress = make_channel("progress");
  auto remote_reporter = client_a.remote("Reporter");
  if (!remote_reporter.call("Watch", vals(5, progress), {}).ok()) return 1;
  for (int i = 0; i < 5; ++i) {
    ValueList update = progress->receive();
    std::printf("progress from remote procedure: %lld/%lld\n",
                static_cast<long long>(update[0].as_int()),
                static_cast<long long>(update[1].as_int()));
  }

  // Lossy phase: 15% of frames vanish, but retries + the server's
  // at-most-once table keep every search exactly-once.
  network.set_loss_probability(0.15);
  net::CallOptions reliable;
  reliable.retry = net::RetryPolicy{};
  const auto dict_before = dict.stats().requests;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = remote_dict_a.call("Search", vals(words[zipf.next()]), reliable);
    if (r.ok()) ++completed;
  }
  const auto cs = client_a.client_stats();
  const auto ss = server.server_stats();
  std::printf(
      "lossy phase: %d/20 searches completed, %llu retransmits, "
      "%llu dedup hits, server executed %llu (exactly one per call)\n",
      completed, static_cast<unsigned long long>(cs.retransmits),
      static_cast<unsigned long long>(ss.dedup_replayed + ss.dup_in_flight +
                                      ss.dup_acked),
      static_cast<unsigned long long>(dict.stats().requests - dict_before));

  const auto net_stats = network.transport_stats();
  std::printf("network: %llu frames, %llu bytes, %llu lost\n",
              static_cast<unsigned long long>(net_stats.frames_delivered),
              static_cast<unsigned long long>(net_stats.bytes_delivered),
              static_cast<unsigned long long>(net_stats.frames_lost));

  // Multiactive phase (DESIGN.md §4.8): a second dictionary whose Search
  // entries are annotated compatible with each other, so remote searches
  // overlap inside the object without per-call manager turns; Insert is a
  // serial group and runs in exclusion.
  network.set_loss_probability(0.0);
  apps::Dictionary ma_dict(
      words, {.search_time = std::chrono::microseconds(500),
              .multiactive = true,
              .object_name = "MultiactiveDictionary"});
  server.host(ma_dict.object());
  auto remote_ma = client_b.remote("MultiactiveDictionary");
  if (!remote_ma.call("Insert", vals(std::string("alps"),
                                     std::string("a language for processes")),
                      {})
           .ok()) {
    return 1;
  }
  std::vector<net::RpcHandle> ma_calls;
  for (int i = 0; i < 20; ++i) {
    ma_calls.push_back(remote_ma.async_call(
        "Search", vals(i % 4 == 0 ? std::string("alps") : words[zipf.next()]),
        {}));
  }
  int ma_ok = 0;
  for (auto& c : ma_calls) {
    if (c.result().ok()) ++ma_ok;
  }
  std::uint64_t ma_concurrent = 0, ma_blocked = 0;
  for (const auto& e : ma_dict.object().stats().entries) {
    ma_concurrent += e.ma_concurrent_starts;
    ma_blocked += e.ma_conflict_blocks;
  }
  std::printf(
      "multiactive phase: %d/20 remote searches ok, %llu concurrent starts, "
      "%llu conflict blocks\n",
      ma_ok, static_cast<unsigned long long>(ma_concurrent),
      static_cast<unsigned long long>(ma_blocked));

  reporter.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    if (argc != 5) {
      std::fprintf(stderr, "usage: %s serve <i> <n> <dir>\n", argv[0]);
      return 2;
    }
    return run_server(std::atoi(argv[2]), std::atoi(argv[3]), argv[4]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "chaos-serve") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: %s chaos-serve <i> <dir>\n", argv[0]);
      return 2;
    }
    return run_chaos_server(std::atoi(argv[2]), argv[3]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "shard-serve") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: %s shard-serve <i> <dir>\n", argv[0]);
      return 2;
    }
    return run_shard_server(std::atoi(argv[2]), argv[3]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "shard-soak") == 0) {
    const bool ci = argc >= 3 && std::strcmp(argv[2], "--ci") == 0;
    return run_shard_soak(ci);
  }
  if (argc >= 2 && std::strcmp(argv[1], "chaos") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s chaos <n> [--ci]\n", argv[0]);
      return 2;
    }
    const int n = std::atoi(argv[2]);
    const bool ci = argc >= 4 && std::strcmp(argv[3], "--ci") == 0;
    return run_chaos(n, ci);
  }
  if (argc >= 2 && std::strcmp(argv[1], "driver") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s driver <n> [--smoke]\n", argv[0]);
      return 2;
    }
    const int n = std::atoi(argv[2]);
    const bool smoke = argc >= 4 && std::strcmp(argv[3], "--smoke") == 0;
    if (n < 1) {
      std::fprintf(stderr, "driver needs at least one server\n");
      return 2;
    }
    return run_driver(n, smoke);
  }
  return run_sim_demo();
}
