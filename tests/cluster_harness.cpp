// Multi-process cluster harness: entry calls as remote procedure calls (§1)
// between real OS processes, one per node, over Unix-domain sockets
// (net::SocketTransport). The driver (NodeId 0) spawns server processes
// (NodeIds 1..) from this same binary, calls their objects by name, and
// audits exactly-once execution from the servers' own counters. Every
// driver returns nonzero on any failed check.
//
//   $ cluster_harness smoke <n>
//       <n> servers each host one apps::Dictionary. The driver mis-seeds one
//       route to show a kWrongNode redirect healing a stale directory
//       replica, runs every insert under an aggressive RetryPolicy, reads
//       values back, and checks each server ran each insert exactly once.
//
//   $ cluster_harness chaos <n>
//       Chaos/soak (DESIGN.md §4.11): an impostor connection (raw garbage
//       bytes) is thrown at the driver's listener first and must be rejected
//       before any frame is dispatched. Then one server is kill -9'ed
//       mid-burst and restarted on the same address, a brand-new server
//       joins the live cluster, and a healthy peer is evicted and
//       re-admitted — all while the driver pushes inserts under aggressive
//       retries. Each server keeps a durable key log, so the harness can
//       assert exactly-once convergence even across the kill.
//
//   $ cluster_harness shard
//       Shard migration (DESIGN.md §4.12): four servers host one *sharded*
//       named object. The driver inserts a keyed stream while the shard map
//       is split live, 2 → 3 → 4 homes, each split installed on the servers
//       mid-burst while the driver's cached map stays stale. Convergence is
//       per key through shard-precise kWrongNode redirects; the audit reads
//       each server's durable key log counters (every key applied on exactly
//       one server, zero re-executions).
//
//   $ cluster_harness serve <i> <dir> <kind>
//       Internal: server process i, started by a driver. <kind> is `dict`
//       (smoke), `keys` (chaos) or `shard`.
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
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
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
using namespace std::chrono_literals;

constexpr const char* kClusterToken = "alps-cluster-harness";
constexpr int kShardInitial = 2;  ///< homes in the seed shard map
constexpr int kShardMax = 4;      ///< homes after both live splits

std::string sock_path(const std::string& dir, int id) {
  return dir + "/" + std::to_string(id) + ".sock";
}
std::string server_name(int i) { return "server-" + std::to_string(i); }
std::string ctl_name(int i) { return "Ctl-" + std::to_string(i); }

/// The object each server kind hosts beside its control object.
std::string data_name(const std::string& kind, int i) {
  if (kind == "shard") return "SDict";
  return (kind == "dict" ? "Dict-" : "Keys-") + std::to_string(i);
}

/// What a server's Stats entry reports for the exactly-once audit.
struct Tally {
  std::int64_t distinct = 0;  ///< keys applied (dictionary: inserts run)
  std::int64_t requests = 0;
  std::int64_t reexec = 0;    ///< bodies run for a key already applied
};

// ---- server ----------------------------------------------------------------

/// A durable key set behind one entry, Insert(key) → 1 if new, 0 if already
/// applied. Applied keys go to an O_APPEND log *before* the in-memory set,
/// so a kill -9 between the two replays the key on restart (counted as a
/// re-execution, never a loss).
class KeyLog {
 public:
  KeyLog(const std::string& name, const std::string& path) : obj_(name) {
    // Crash recovery: replay the key log a dead predecessor left behind.
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) seen_.insert(line);
    }
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
      throw std::system_error(errno, std::generic_category(), "open " + path);
    }
    auto insert =
        obj_.define_entry({.name = "Insert", .params = 1, .results = 1});
    obj_.implement(insert, [this](BodyCtx& ctx) -> ValueList {
      return {Value(apply(ctx.param(0).as_string()))};
    });
    obj_.start();
  }
  ~KeyLog() {
    obj_.stop();
    ::close(fd_);
  }
  KeyLog(const KeyLog&) = delete;
  KeyLog& operator=(const KeyLog&) = delete;

  Object& object() { return obj_; }

  Tally tally() const {
    std::scoped_lock lock(mu_);
    return {static_cast<std::int64_t>(seen_.size()), requests_, reexec_};
  }

 private:
  // Entry bodies of a manager-less object run concurrently on the pooled
  // executor, so the applied-key state is mutex-guarded.
  std::int64_t apply(const std::string& key) {
    std::scoped_lock lock(mu_);
    ++requests_;
    if (seen_.count(key) != 0) {
      // A retransmit that outlived the RPC dedup table (it died with the
      // killed incarnation) re-executes the body; the durable log makes
      // that visible-but-idempotent instead of a double insert.
      ++reexec_;
      return 0;
    }
    const std::string rec = key + "\n";
    if (::write(fd_, rec.data(), rec.size()) !=
        static_cast<ssize_t>(rec.size())) {
      std::perror("append key log");
    }
    seen_.insert(key);
    return 1;
  }

  Object obj_;
  mutable std::mutex mu_;
  std::unordered_set<std::string> seen_;
  std::int64_t requests_ = 0, reexec_ = 0;
  int fd_ = -1;
};

/// Server process `i`: hosts its kind's data object plus a control object
/// (Stats for the exactly-once audit, SetMap for placement, Shutdown to
/// exit). Only the driver (node 0) is a peer. Blocks until Shutdown.
int serve(int i, const std::string& dir, const std::string& kind) {
  net::SocketTransportOptions opts;
  opts.local_node = static_cast<net::NodeId>(i);
  opts.local_name = server_name(i);
  // Listen on a hidden path first and atomically rename to the advertised
  // one only after the objects are hosted: a call that races server startup
  // then fails at connect (retried silently by the sender's backoff)
  // instead of reaching a transport with no object behind it (a typed,
  // non-retryable "no such object").
  opts.listen = net::SocketAddress::unix_path(sock_path(dir, i) + ".tmp");
  opts.peers.push_back(net::SocketPeer{
      0, "driver", net::SocketAddress::unix_path(sock_path(dir, 0))});
  opts.cluster_token = kClusterToken;
  net::SocketTransport transport(opts);
  net::Node node(transport, opts.local_name);

  std::optional<apps::Dictionary> dict;
  std::optional<KeyLog> log;
  std::function<Tally()> tally;
  if (kind == "dict") {
    dict.emplace(support::make_word_list(16),
                 apps::Dictionary::Options{.object_name = data_name(kind, i)});
    node.host(dict->object());
    tally = [&dict] {
      const auto s = dict->stats();
      return Tally{static_cast<std::int64_t>(s.inserts),
                   static_cast<std::int64_t>(s.requests), 0};
    };
  } else {
    log.emplace(data_name(kind, i),
                dir + "/keys-" + std::to_string(i) + ".log");
    node.host(log->object());
    tally = [&log] { return log->tally(); };
  }

  support::Event quit;
  Object ctl(ctl_name(i));
  auto stats = ctl.define_entry({.name = "Stats", .params = 0, .results = 3});
  ctl.implement(stats, [&tally](BodyCtx&) -> ValueList {
    const Tally t = tally();
    return {Value(t.distinct), Value(t.requests), Value(t.reexec)};
  });
  auto set_map =
      ctl.define_entry({.name = "SetMap", .params = 1, .results = 0});
  ctl.implement(set_map, [&](BodyCtx& ctx) -> ValueList {
    // Install the n-server placement in this process's replica: the shard
    // kind's n-home map {1..n} (the shard-split signal — from then on this
    // server answers shard-precise kWrongNode redirects for keys it no
    // longer owns), or every sibling's home for the others. A stale entry
    // is not fatal: kWrongNode redirects heal it.
    const auto n = ctx.param(0).as_int();
    std::vector<net::NodeId> homes;
    for (std::int64_t h = 1; h <= n; ++h) {
      homes.push_back(static_cast<net::NodeId>(h));
      if (kind != "shard" && h != i) {
        transport.directory().add(data_name(kind, static_cast<int>(h)),
                                  static_cast<net::NodeId>(h));
      }
    }
    if (kind == "shard") {
      transport.directory().add_sharded("SDict", std::move(homes));
    }
    return {};
  });
  auto shutdown =
      ctl.define_entry({.name = "Shutdown", .params = 0, .results = 0});
  ctl.implement(shutdown, [&quit](BodyCtx&) -> ValueList {
    quit.set();
    return {};
  });
  ctl.start();
  node.host(ctl);
  std::filesystem::rename(sock_path(dir, i) + ".tmp", sock_path(dir, i));

  quit.wait();
  // quit is set from inside the Shutdown body; its response frame is posted
  // only after the body returns. Give the reply a moment to be enqueued,
  // then drain the wire before tearing down.
  std::this_thread::sleep_for(50ms);
  transport.wait_quiescent();
  ctl.stop();
  return 0;
}

// ---- driver side -----------------------------------------------------------

/// The driver's view of one cluster: a temp dir holding every node's socket
/// path, the server processes it spawned, its own transport and Node, and
/// the failure count every check adds to.
class Cluster {
 public:
  /// Spawns servers 1..servers of `kind`. Their control objects are placed
  /// in the driver's directory; data objects are each driver's business.
  Cluster(std::string kind, int servers)
      : kind_(std::move(kind)),
        dir_(make_dir()),
        transport_(driver_options(servers)),
        driver_(transport_, "driver") {
    for (int i = 1; i <= servers; ++i) spawn(i);
  }
  ~Cluster() {
    // Servers a driver that gave up early left behind.
    for (const auto& [i, pid] : pids_) ::kill(pid, SIGKILL);
    for (const auto& [i, pid] : pids_) ::waitpid(pid, nullptr, 0);
    std::filesystem::remove_all(dir_);
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  net::SocketTransport& transport() { return transport_; }
  net::Node& driver() { return driver_; }
  std::string sock(int id) const { return sock_path(dir_, id); }
  int failures() const { return failures_; }

  bool check(bool ok, const char* what) {
    if (!ok) {
      ++failures_;
      std::fprintf(stderr, "FAIL: %s\n", what);
    }
    return ok;
  }

  /// Starts server `i` (again, after a kill) on its fixed address.
  void spawn(int i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::system_error(errno, std::generic_category(), "fork");
    }
    if (pid == 0) {
      ::execl("/proc/self/exe", "cluster_harness", "serve",
              std::to_string(i).c_str(), dir_.c_str(), kind_.c_str(),
              static_cast<char*>(nullptr));
      std::perror("execl");
      std::_Exit(127);
    }
    pids_[i] = pid;
    transport_.directory().add(ctl_name(i), static_cast<net::NodeId>(i));
  }

  /// Servers are up once their listeners exist.
  bool wait_up() {
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    for (const auto& [i, pid] : pids_) {
      while (!std::filesystem::exists(sock(i))) {
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "server %d never came up\n", i);
          return check(false, "every server comes up");
        }
        std::this_thread::sleep_for(10ms);
      }
    }
    return true;
  }

  /// Aggressive retries: a short attempt timeout forces retransmissions
  /// across connect latency and scheduling noise — which is the point: the
  /// servers' counters must still show exactly one execution per key
  /// (at-most-once dedup over a real transport).
  static net::CallOptions retrying(std::chrono::milliseconds attempt) {
    net::CallOptions reliable;
    net::RetryPolicy policy;
    policy.attempt_timeout = attempt;
    reliable.retry = policy;
    reliable.deadline = 60s;
    return reliable;
  }

  /// Installs the n-server placement on every server, newest first: a new
  /// home accepts its shard before any old home starts redirecting into it.
  void set_map(int n, const net::CallOptions& opts) {
    for (auto it = pids_.rbegin(); it != pids_.rend(); ++it) {
      auto r = driver_.call(ctl_name(it->first), "SetMap",
                            vals(static_cast<std::int64_t>(n)), opts);
      check(r.ok(), "SetMap reaches every server");
    }
  }

  std::optional<Tally> stats(int i, const net::CallOptions& opts) {
    auto r = driver_.call(ctl_name(i), "Stats", {}, opts);
    if (!check(r.ok(), "Stats call completes")) return std::nullopt;
    return Tally{r.value()[0].as_int(), r.value()[1].as_int(),
                 r.value()[2].as_int()};
  }

  /// kill -9: no shutdown, no flush, the durable key log is all that stays.
  void kill(int i) {
    ::kill(pids_.at(i), SIGKILL);
    const int status = reap(i);
    check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "victim died by SIGKILL");
  }

  /// Asks every server to exit, reaps them all and returns the exit code.
  int shutdown() {
    for (const auto& [i, pid] : pids_) {
      // Shutdown responses race process exit; tolerate a lost reply.
      net::CallOptions lenient;
      lenient.deadline = 5s;
      lenient.retry = net::RetryPolicy{};
      driver_.call(ctl_name(i), "Shutdown", {}, lenient);
    }
    while (!pids_.empty()) {
      const int i = pids_.begin()->first;
      const int status = reap(i);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "server %d exited abnormally (status %d)\n", i,
                     status);
        ++failures_;
      }
    }
    return failures_ == 0 ? 0 : 1;
  }

 private:
  static std::string make_dir() {
    char dir_template[] = "/tmp/alps-cluster-XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp");
    }
    return dir_template;
  }

  /// The driver listens on sock(0) and knows servers 1..servers.
  net::SocketTransportOptions driver_options(int servers) const {
    net::SocketTransportOptions opts;
    opts.local_node = 0;
    opts.local_name = "driver";
    opts.listen = net::SocketAddress::unix_path(sock(0));
    for (int i = 1; i <= servers; ++i) {
      opts.peers.push_back(net::SocketPeer{
          static_cast<net::NodeId>(i), server_name(i),
          net::SocketAddress::unix_path(sock(i))});
    }
    opts.cluster_token = kClusterToken;
    return opts;
  }

  /// Waits for server `i` and forgets it; returns its wait status.
  int reap(int i) {
    int status = 0;
    if (::waitpid(pids_.at(i), &status, 0) < 0) {
      std::perror("waitpid");
      status = -1;
    }
    pids_.erase(i);
    return status;
  }

  const std::string kind_;
  const std::string dir_;
  std::map<int, pid_t> pids_;
  int failures_ = 0;
  net::SocketTransport transport_;
  net::Node driver_;
};

// ---- smoke: name-based calls, a healed stale route, exactly-once ----------

int run_smoke(int n) {
  constexpr int kKeysPerServer = 24;
  Cluster cluster("dict", n);
  net::Node& driver = cluster.driver();
  // Static placement knowledge — with one deliberate lie: the last
  // dictionary is claimed to live on node 1. The first call to it will
  // land wrong, earn a kWrongNode redirect from node 1's honest replica,
  // and heal this process's route cache in-band.
  for (int i = 1; i <= n; ++i) {
    const bool lie = n >= 2 && i == n;
    cluster.transport().directory().add(
        data_name("dict", i), static_cast<net::NodeId>(lie ? 1 : i));
  }
  if (!cluster.wait_up()) return 1;

  const net::CallOptions reliable = Cluster::retrying(10ms);
  cluster.set_map(n, reliable);  // every server's honest replica
  int insert_failures = 0;
  for (int i = 1; i <= n; ++i) {
    for (int k = 0; k < kKeysPerServer; ++k) {
      const std::string key =
          "key-" + std::to_string(i) + "-" + std::to_string(k);
      auto r = driver.call(data_name("dict", i), "Insert",
                           vals(key, "value of " + key), reliable);
      if (!r.ok()) {
        ++insert_failures;
        std::fprintf(stderr, "insert %s: %s\n", key.c_str(),
                     r.error().what());
      }
    }
  }
  cluster.check(insert_failures == 0,
                "every insert completes over the sockets");

  // Redirect audit: the lie about Dict-n must have been corrected by a
  // kWrongNode hop, not by luck.
  if (n >= 2) {
    cluster.check(driver.client_stats().redirects >= 1,
                  "stale replica heals via kWrongNode redirect");
    cluster.check(driver.cached_route(data_name("dict", n)) ==
                      std::optional<net::NodeId>(static_cast<net::NodeId>(n)),
                  "route cache learns the true home");
  }

  // Read-back round-trip through each server.
  for (int i = 1; i <= n; ++i) {
    const std::string key = "key-" + std::to_string(i) + "-0";
    auto r = driver.call(data_name("dict", i), "Search", vals(key), reliable);
    cluster.check(r.ok() && r.value()[0].as_string() == "value of " + key,
                  "search returns the inserted value");
  }

  // Exactly-once audit: each server's own insert counter must equal the
  // number of distinct keys sent to it, no matter how many retransmits
  // the aggressive policy produced.
  for (int i = 1; i <= n; ++i) {
    const auto t = cluster.stats(i, reliable);
    if (t && !cluster.check(t->distinct == kKeysPerServer,
                            "server executed each insert exactly once")) {
      std::fprintf(stderr, "  server %d: %lld inserts for %d keys\n", i,
                   static_cast<long long>(t->distinct), kKeysPerServer);
    }
  }
  std::printf(
      "multi-process: %d servers x %d keys, %llu retransmits, "
      "exactly-once %s\n",
      n, kKeysPerServer,
      static_cast<unsigned long long>(driver.client_stats().retransmits),
      cluster.failures() == 0 ? "held" : "VIOLATED");
  return cluster.shutdown();
}

// ---- chaos/soak (DESIGN.md §4.11) ------------------------------------------

/// The scripted failure sequence from DESIGN.md §4.11 — impostor rejection,
/// kill -9 + same-address restart mid-burst, a server added to the live
/// cluster, a healthy peer evicted and re-admitted — with an exactly-once
/// audit against each server's durable key counters.
int run_chaos(int n) {
  constexpr int K = 250;        // keys per server
  constexpr int kBurst = 60;    // in flight across the kill
  const int victim = 1;    // kill -9'ed mid-burst, restarted on same address
  const int churned = 2;   // evicted from the live cluster, then re-admitted
  const int added = n + 1; // joins the live cluster mid-run
  Cluster cluster("keys", n);
  net::SocketTransport& transport = cluster.transport();
  net::Node& driver = cluster.driver();
  // Places server i's objects in the driver's replica.
  auto admit = [&](int i) {
    transport.add_peer(static_cast<net::NodeId>(i), server_name(i),
                       "unix:" + cluster.sock(i));
    transport.directory().add(data_name("keys", i),
                              static_cast<net::NodeId>(i));
    transport.directory().add(ctl_name(i), static_cast<net::NodeId>(i));
  };
  for (int i = 1; i <= n; ++i) admit(i);  // peers already: places only
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
    std::strncpy(addr.sun_path, cluster.sock(0).c_str(),
                 sizeof(addr.sun_path) - 1);
    if (cluster.check(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
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
  cluster.check(
      support::net_health().handshake_rejected.get() > rejected_before,
      "impostor handshake rejected");
  cluster.check(transport.transport_stats().frames_delivered == 0,
                "impostor delivered no frames");

  const net::CallOptions reliable = Cluster::retrying(15ms);
  auto key_of = [](int i, int k) {
    return "k-" + std::to_string(i) + "-" + std::to_string(k);
  };
  std::map<int, int> next;  // next unissued key index per server
  auto insert_upto = [&](int i, int upto) {
    for (; next[i] < upto; ++next[i]) {
      auto r = driver.call(data_name("keys", i), "Insert",
                           vals(key_of(i, next[i])), reliable);
      if (!cluster.check(r.ok(), "insert completes under chaos")) {
        std::fprintf(stderr, "  %s: %s\n", key_of(i, next[i]).c_str(),
                     r.error().what());
      }
    }
  };

  // Phase A: warm the cluster — 40% of each original server's keys.
  for (int i = 1; i <= n; ++i) insert_upto(i, (K * 2) / 5);

  // Phase B: kill -9 the victim while a burst of calls is in flight,
  // restart it on the same address. Retries ride the retransmit queue
  // across the blip; the durable key log absorbs any re-executions.
  auto proxy = driver.remote(data_name("keys", victim));
  std::vector<net::RpcHandle> burst;
  for (int b = 0; b < kBurst; ++b) {
    burst.push_back(proxy.async_call(
        "Insert", vals(key_of(victim, next[victim] + b)), reliable));
  }
  cluster.kill(victim);
  // A real downtime window so retransmits actually queue against a dead
  // address before the same-address restart.
  std::this_thread::sleep_for(100ms);
  cluster.spawn(victim);
  int burst_ok = 0;
  for (auto& h : burst) {
    if (h.result().ok()) ++burst_ok;
  }
  next[victim] += kBurst;
  cluster.check(burst_ok == kBurst,
                "every in-flight call completes across the kill");

  // Phase C1: grow the live cluster — admit a brand-new server and give
  // it a full complement of keys while everything else keeps running.
  admit(added);
  cluster.spawn(added);
  insert_upto(added, K);

  // Phase C2: evict a healthy peer live — calls to it must fail typed
  // (its directory entries are purged), not hang — then re-admit it.
  cluster.check(transport.remove_peer(static_cast<net::NodeId>(churned)),
                "live eviction succeeds");
  net::CallOptions fast;
  fast.deadline = 1s;
  auto evicted = driver.call(data_name("keys", churned), "Insert",
                             vals(std::string("evicted-probe")), fast);
  cluster.check(!evicted.ok() &&
                    evicted.error().cause() == net::RpcCause::kObjectNotFound,
                "call to an evicted peer fails typed, not by timeout");
  admit(churned);

  // Phase D: drain the remaining keys everywhere, including the
  // restarted victim and the re-admitted peer.
  for (int i = 1; i <= n; ++i) insert_upto(i, K);

  // Exactly-once audit from the servers' own durable counters: every
  // server holds exactly its K distinct keys; servers that were never
  // killed saw zero re-executions (the RPC dedup table alone sufficed).
  std::int64_t total_distinct = 0;
  for (int i = 1; i <= added; ++i) {
    const auto t = cluster.stats(i, reliable);
    if (!t) continue;
    total_distinct += t->distinct;
    if (!cluster.check(t->distinct == K,
                       "server holds exactly K distinct keys")) {
      std::fprintf(stderr, "  server %d: %lld distinct for %d keys\n", i,
                   static_cast<long long>(t->distinct), K);
    }
    if (i != victim) {
      cluster.check(t->reexec == 0,
                    "never-killed server saw no re-executions");
    }
  }
  cluster.check(total_distinct == static_cast<std::int64_t>(K) * (n + 1),
                "cluster converged on every issued key exactly once");
  cluster.check(peers_added == 2 && peers_removed == 1,
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
      cluster.failures() == 0 ? "held" : "VIOLATED");
  transport.remove_membership_listener(member_token);
  return cluster.shutdown();
}

// ---- shard migration (DESIGN.md §4.12) -------------------------------------

/// Inserts a keyed stream against the sharded name while the map is split
/// live 2 → 3 → 4 homes under in-flight traffic, then audits exactly-once
/// convergence from the servers' durable counters. The driver's own map
/// stays deliberately stale across both splits — every moved key's first
/// call earns a shard-precise kWrongNode redirect that patches exactly one
/// slot of its cached map.
int run_shard() {
  constexpr int K = 600;      // total keys
  constexpr int kBurst = 80;  // in-flight calls across each split
  Cluster cluster("shard", kShardMax);
  net::Node& driver = cluster.driver();
  std::vector<net::NodeId> homes;
  for (int h = 1; h <= kShardInitial; ++h) {
    homes.push_back(static_cast<net::NodeId>(h));
  }
  cluster.transport().directory().add_sharded("SDict", std::move(homes));
  if (!cluster.wait_up()) return 1;

  const net::CallOptions reliable = Cluster::retrying(15ms);
  // The initial truth is kShardInitial homes on every server, whether or
  // not it is among them yet.
  cluster.set_map(kShardInitial, reliable);
  auto key_of = [](int k) { return "sk-" + std::to_string(k); };
  int issued = 0;
  auto insert_upto = [&](int upto) {
    for (; issued < upto; ++issued) {
      auto r = driver.call("SDict", "Insert", vals(key_of(issued)), reliable);
      if (!cluster.check(r.ok(), "insert completes across the soak")) {
        std::fprintf(stderr, "  %s: %s\n", key_of(issued).c_str(),
                     r.error().what());
      }
    }
  };
  // The live-split pattern: a burst of async inserts goes up against the
  // old map, the new map is installed while they are in flight, and every
  // call must still complete — moved keys through a redirect hop.
  auto split_under_burst = [&](int new_n) {
    auto proxy = driver.remote("SDict");
    std::vector<net::RpcHandle> burst;
    for (int b = 0; b < kBurst; ++b) {
      burst.push_back(
          proxy.async_call("Insert", vals(key_of(issued + b)), reliable));
    }
    cluster.set_map(new_n, reliable);
    int ok = 0;
    for (auto& h : burst) {
      if (h.result().ok()) ++ok;
    }
    issued += kBurst;
    cluster.check(ok == kBurst,
                  "every in-flight insert completes across the split");
  };

  insert_upto((K * 2) / 5);     // warm: cached 2-home map established
  split_under_burst(3);         // live split 2 -> 3 mid-burst
  insert_upto((K * 7) / 10);    // stale slots heal one redirect per slot
  split_under_burst(4);         // live split 3 -> 4 mid-burst
  insert_upto(K);               // drain on the 4-home map

  cluster.check(driver.client_stats().redirects >= 1,
                "moved keys healed via shard-precise kWrongNode redirects");

  // Exactly-once audit from the servers' durable counters: the union of
  // per-server key logs is exactly the issued key set (each key applied on
  // one server), and no server ever re-executed an applied key.
  std::int64_t total_distinct = 0, total_reexec = 0;
  for (int i = 1; i <= kShardMax; ++i) {
    const auto t = cluster.stats(i, reliable);
    if (!t) continue;
    total_distinct += t->distinct;
    total_reexec += t->reexec;
    cluster.check(t->distinct > 0,
                  "every home serves a non-empty shard after the splits");
  }
  cluster.check(total_distinct == issued,
                "union of shard key logs is exactly the issued key set");
  cluster.check(total_reexec == 0,
                "zero re-executions across both live splits");

  std::printf(
      "shard-soak: %d keys over 2->3->4 homes, %llu redirects, "
      "%llu retransmits, exactly-once %s\n",
      issued,
      static_cast<unsigned long long>(driver.client_stats().redirects),
      static_cast<unsigned long long>(driver.client_stats().retransmits),
      cluster.failures() == 0 ? "held" : "VIOLATED");
  return cluster.shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  try {
    if (mode == "serve" && argc == 5) {
      return serve(std::atoi(argv[2]), argv[3], argv[4]);
    }
    if (mode == "smoke" && argc == 3 && std::atoi(argv[2]) >= 1) {
      return run_smoke(std::atoi(argv[2]));
    }
    if (mode == "chaos" && argc == 3 && std::atoi(argv[2]) >= 2) {
      return run_chaos(std::atoi(argv[2]));
    }
    if (mode == "shard" && argc == 2) return run_shard();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: %s smoke <servers> | chaos <servers, 2 or more> | "
               "shard\n",
               argv[0]);
  return 2;
}
