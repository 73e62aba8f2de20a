// E18 (DESIGN.md §4.10): real sockets vs the simulated transport — the same
// echo RPC measured over the in-process Network, a Unix-domain-socket pair,
// and a TCP loopback pair, at payload sizes from 64 B to 1 MB.
//
// Rows report p50/p99 call latency (sorted-sample idiom; the mean hides the
// connect and scheduling tail that only real sockets have), frames_per_call
// from client-side transport-stats deltas (posts + deliveries; the sim's
// shared Network sees both endpoints, so its rows read ~2× the socket rows
// where each process counts only its own side), and
// assembled_per_call from the process-wide data-plane accounting: the socket
// send path consumes FrameBuilder's scatter-gather slices via writev, so
// payloads ≥ the 256 B slice threshold must show ~0 bytes gathered per call
// on the socket rows, exactly like the simulated rows.
//
// The second sweep holds the payload at 64 KB and grows the batch window:
// coalescing collapses frames_per_call below 2 on the wire while the batch
// envelope itself still rides the writev path (assembled_per_call stays
// ~flat as the window grows).
#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

#include "core/alps.h"
#include "net/net.h"
#include "support/stats.h"

namespace {

using namespace alps;

Blob pattern(std::size_t n) {
  Blob b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 31);
  return b;
}

struct Service {
  Object obj{"Svc"};
  EntryRef echo;
  Service() {
    echo = obj.define_entry({.name = "Echo", .params = 1, .results = 1});
    obj.implement(echo,
                  [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
    obj.start();
  }
  ~Service() { obj.stop(); }
};

/// Reserves an ephemeral TCP port: bind to 127.0.0.1:0, read it back, close.
/// (Tiny reuse race, irrelevant at bench scale.)
std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

enum Backend : std::int64_t { kSim = 0, kUnix = 1, kTcp = 2 };

/// One client node (1) + one server node (2) over the chosen backend, with
/// the echo service hosted and the client's route seeded.
struct Rig {
  // Engaged for the sim row:
  std::unique_ptr<net::Network> network;
  // Engaged for the socket rows:
  std::unique_ptr<net::SocketTransport> client_t, server_t;
  std::string socket_dir;

  std::unique_ptr<net::Node> client, server;
  Service svc;

  explicit Rig(Backend backend) {
    if (backend == kSim) {
      network = std::make_unique<net::Network>();  // zero simulated latency
      client = std::make_unique<net::Node>(*network, "client");
      server = std::make_unique<net::Node>(*network, "server");
    } else {
      net::SocketAddress addr1, addr2;
      if (backend == kUnix) {
        static std::atomic<int> counter{0};
        socket_dir = (std::filesystem::temp_directory_path() /
                      ("alps-bench-" + std::to_string(::getpid()) + "-" +
                       std::to_string(counter.fetch_add(1))))
                         .string();
        std::filesystem::create_directories(socket_dir);
        addr1 = net::SocketAddress::unix_path(socket_dir + "/1.sock");
        addr2 = net::SocketAddress::unix_path(socket_dir + "/2.sock");
      } else {
        // Both listen ports must be known before either transport exists
        // (the peer map is fixed at construction), so reserve them first.
        addr1 = net::SocketAddress::tcp("127.0.0.1", pick_free_port());
        addr2 = net::SocketAddress::tcp("127.0.0.1", pick_free_port());
      }
      auto options = [&](net::NodeId self) {
        net::SocketTransportOptions o;
        o.local_node = self;
        o.local_name = self == 1 ? "client" : "server";
        o.listen = self == 1 ? addr1 : addr2;
        o.peers.push_back(self == 1 ? net::SocketPeer{2, "server", addr2}
                                    : net::SocketPeer{1, "client", addr1});
        return o;
      };
      client_t = std::make_unique<net::SocketTransport>(options(1));
      server_t = std::make_unique<net::SocketTransport>(options(2));
      client = std::make_unique<net::Node>(*client_t, "client");
      server = std::make_unique<net::Node>(*server_t, "server");
      client_t->directory().add("Svc", server->id());
    }
    server->host(svc.obj);
  }

  ~Rig() {
    client.reset();
    server.reset();
    client_t.reset();
    server_t.reset();
    network.reset();
    if (!socket_dir.empty()) std::filesystem::remove_all(socket_dir);
  }

  /// The client-side view of the wire (requests posted, responses delivered).
  net::TransportStats client_stats() const {
    return network ? network->transport_stats() : client_t->transport_stats();
  }
};

void report_row(benchmark::State& state, std::vector<double>& latency_us,
                const net::TransportStats& before,
                const net::TransportStats& after, std::int64_t calls,
                std::uint64_t assembled_before) {
  std::sort(latency_us.begin(), latency_us.end());
  const auto pct = [&](double q) {
    if (latency_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latency_us.size() - 1));
    return latency_us[idx];
  };
  const auto denom = static_cast<double>(std::max<std::int64_t>(calls, 1));
  state.counters["p50_us"] = benchmark::Counter(pct(0.50));
  state.counters["p99_us"] = benchmark::Counter(pct(0.99));
  state.counters["frames_per_call"] = benchmark::Counter(
      static_cast<double>((after.frames_posted - before.frames_posted) +
                          (after.frames_delivered - before.frames_delivered)) /
      denom);
  state.counters["assembled_per_call"] = benchmark::Counter(
      static_cast<double>(support::data_plane().bytes_assembled.get() -
                          assembled_before) /
      denom);
}

// ---- sequential echo: sim vs unix vs tcp -----------------------------------

void BM_TransportEcho(benchmark::State& state) {
  const auto backend = static_cast<Backend>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  Rig rig(backend);
  const Value payload(pattern(bytes));
  auto remote = rig.client->remote("Svc");
  // Warm the route cache and, on the socket rows, the TCP/UDS connections
  // in both directions — connection setup is a separate phenomenon from
  // steady-state framing cost.
  remote.call("Echo", {payload}, {}).value();

  const auto before = rig.client_stats();
  const auto assembled_before = support::data_plane().bytes_assembled.get();
  std::vector<double> latency_us;
  std::int64_t calls = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(remote.call("Echo", {payload}, {}));
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    ++calls;
  }
  report_row(state, latency_us, before, rig.client_stats(), calls,
             assembled_before);
  state.SetItemsProcessed(calls);
  state.SetBytesProcessed(calls * static_cast<std::int64_t>(bytes));
}

// ---- batch-window sweep at 64 KB over each backend -------------------------

void BM_TransportBatched(benchmark::State& state) {
  const auto backend = static_cast<Backend>(state.range(0));
  const auto window = static_cast<int>(state.range(1));
  Rig rig(backend);
  if (window > 1) {
    net::BatchOptions options;
    options.max_frames = static_cast<std::size_t>(window);
    options.max_bytes = std::size_t{1} << 30;  // frame bound decides flushes
    rig.client->set_batching(options);
    rig.server->set_batching(options);
  }
  const Value payload(pattern(64 * 1024));
  auto remote = rig.client->remote("Svc");
  remote.call("Echo", {payload}, {}).value();

  const auto before = rig.client_stats();
  const auto assembled_before = support::data_plane().bytes_assembled.get();
  std::vector<double> latency_us;
  std::int64_t calls = 0;
  std::vector<net::RpcHandle> handles;
  handles.reserve(static_cast<std::size_t>(window));
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    handles.clear();
    for (int k = 0; k < window; ++k) {
      handles.push_back(remote.async_call("Echo", {payload}, {}));
    }
    for (auto& h : handles) benchmark::DoNotOptimize(h.result().ok());
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    // One sample per window: the window is the unit a caller waits on.
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    calls += window;
  }
  report_row(state, latency_us, before, rig.client_stats(), calls,
             assembled_before);
  state.SetItemsProcessed(calls);
  state.SetBytesProcessed(calls * static_cast<std::int64_t>(64 * 1024));
}

// ---- chaos: echo through a server that dies and comes back (E19) -----------

// E19 (DESIGN.md §4.11): the cost of riding out a server blip. Halfway
// through the run the server's transport+node are destroyed and rebuilt on
// the same unix address after `downtime_ms`; every call runs under an
// aggressive RetryPolicy. completion_rate must hold at 1.0 — the price of
// the blip shows up in retransmits_per_call and the p99 tail instead.
void BM_TransportChaos(benchmark::State& state) {
  const auto downtime = std::chrono::milliseconds(state.range(0));

  static std::atomic<int> counter{0};
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("alps-bench-chaos-" + std::to_string(::getpid()) +
                            "-" + std::to_string(counter.fetch_add(1))))
                              .string();
  std::filesystem::create_directories(dir);
  const auto addr1 = net::SocketAddress::unix_path(dir + "/1.sock");
  const auto addr2 = net::SocketAddress::unix_path(dir + "/2.sock");
  auto options = [&](net::NodeId self) {
    net::SocketTransportOptions o;
    o.local_node = self;
    o.local_name = self == 1 ? "client" : "server";
    o.listen = self == 1 ? addr1 : addr2;
    o.peers.push_back(self == 1 ? net::SocketPeer{2, "server", addr2}
                                : net::SocketPeer{1, "client", addr1});
    return o;
  };

  // The server side is bundled so one reset() is the kill and one
  // make_unique is the same-address restart.
  struct ServerSide {
    net::SocketTransport transport;
    net::Node node;
    Service svc;
    explicit ServerSide(const net::SocketTransportOptions& o)
        : transport(o), node(transport, "server") {
      node.host(svc.obj);
    }
  };
  {
  auto server = std::make_unique<ServerSide>(options(2));
  net::SocketTransport client_t(options(1));
  net::Node client(client_t, "client");
  client_t.directory().add("Svc", 2);

  net::CallOptions reliable;
  net::RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(5);
  reliable.retry = policy;
  reliable.deadline = std::chrono::seconds(10);

  const Value payload(pattern(1024));
  auto remote = client.remote("Svc");
  remote.call("Echo", {payload}, reliable).value();  // warm connections

  const auto retransmits_before = client.client_stats().retransmits;
  std::vector<double> latency_us;
  std::int64_t calls = 0, ok = 0;
  const auto blip_at = state.max_iterations / 2;
  for (auto _ : state) {
    if (calls == blip_at) {
      server.reset();
      if (downtime.count() > 0) std::this_thread::sleep_for(downtime);
      server = std::make_unique<ServerSide>(options(2));
    }
    const auto begin = std::chrono::steady_clock::now();
    if (remote.call("Echo", {payload}, reliable).ok()) ++ok;
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    ++calls;
  }
  std::sort(latency_us.begin(), latency_us.end());
  const auto pct = [&](double q) {
    if (latency_us.empty()) return 0.0;
    return latency_us[static_cast<std::size_t>(
        q * static_cast<double>(latency_us.size() - 1))];
  };
  const auto denom = static_cast<double>(std::max<std::int64_t>(calls, 1));
  state.counters["p50_us"] = benchmark::Counter(pct(0.50));
  state.counters["p99_us"] = benchmark::Counter(pct(0.99));
  state.counters["completion_rate"] =
      benchmark::Counter(static_cast<double>(ok) / denom);
  state.counters["retransmits_per_call"] = benchmark::Counter(
      static_cast<double>(client.client_stats().retransmits -
                          retransmits_before) /
      denom);
  state.SetItemsProcessed(calls);
  }
  std::filesystem::remove_all(dir);
}

void EchoSweep(benchmark::internal::Benchmark* b) {
  // Backend alternates fastest so each payload size is measured across all
  // three back-to-back (keeps allocator/thermal drift out of the contrast).
  for (std::int64_t bytes : {64, 4096, 65536, 1 << 20}) {
    for (std::int64_t backend : {kSim, kUnix, kTcp}) b->Args({backend, bytes});
  }
}

void BatchSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t window : {1, 8, 32}) {
    for (std::int64_t backend : {kSim, kUnix, kTcp}) {
      b->Args({backend, window});
    }
  }
}

// Fixed iteration counts: enough samples for a stable p99 while bounding the
// 1 MB rows (600 MB through a socket per row is ~a second on loopback).
BENCHMARK(BM_TransportEcho)
    ->ArgNames({"backend", "bytes"})
    ->Apply(EchoSweep)
    ->Iterations(600)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_TransportBatched)
    ->ArgNames({"backend", "window"})
    ->Apply(BatchSweep)
    ->Iterations(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
// Chaos rows: enough calls on each side of the mid-run blip for a stable
// p99; downtime 0 is a pure connection drop, 50 ms adds a real dead window.
BENCHMARK(BM_TransportChaos)
    ->ArgName("downtime_ms")
    ->Arg(0)
    ->Arg(50)
    ->Iterations(400)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

ALPS_BENCH_MAIN()
