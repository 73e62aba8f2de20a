// Tests for the paper's worked examples (src/apps): §2.4.1 bounded buffer,
// §2.5.1 readers–writers, §2.7.1 dictionary combining, §2.8.1 spooler,
// §2.8.2 parallel bounded buffer, and the pri-guard disk scheduler.
// The buffer suites run parameterized over all three §3 process models.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/bounded_buffer.h"
#include "apps/dictionary.h"
#include "apps/disk_scheduler.h"
#include "apps/parallel_buffer.h"
#include "apps/readers_writers.h"
#include "apps/spooler.h"
#include "net/net.h"
#include "support/rng.h"

namespace alps::apps {
namespace {

using sched::ProcessModel;

std::string model_name(const ::testing::TestParamInfo<ProcessModel>& info) {
  switch (info.param) {
    case ProcessModel::kSlotBound: return "SlotBound";
    case ProcessModel::kPooled: return "Pooled";
    case ProcessModel::kDynamic: return "Dynamic";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// §2.4.1 bounded buffer — across process models
// ---------------------------------------------------------------------------

class BoundedBufferModels : public ::testing::TestWithParam<ProcessModel> {};

TEST_P(BoundedBufferModels, FifoNoLossNoDuplication) {
  BoundedBuffer buffer({.capacity = 4, .model = GetParam()});
  std::vector<int> got;
  std::jthread producer([&] {
    for (int i = 0; i < 100; ++i) buffer.deposit(Value(i));
  });
  for (int i = 0; i < 100; ++i) {
    got.push_back(static_cast<int>(buffer.remove().as_int()));
  }
  producer.join();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST_P(BoundedBufferModels, BackpressureWhenFull) {
  BoundedBuffer buffer({.capacity = 2, .model = GetParam()});
  buffer.deposit(Value(0));
  buffer.deposit(Value(1));
  auto blocked = buffer.async_deposit(Value(2));
  EXPECT_FALSE(blocked.wait_for(std::chrono::milliseconds(30)));
  EXPECT_EQ(buffer.remove().as_int(), 0);
  blocked.wait();
}

INSTANTIATE_TEST_SUITE_P(AllModels, BoundedBufferModels,
                         ::testing::Values(ProcessModel::kSlotBound,
                                           ProcessModel::kPooled,
                                           ProcessModel::kDynamic),
                         model_name);

// ---------------------------------------------------------------------------
// §2.5.1 readers–writers
// ---------------------------------------------------------------------------

TEST(ReadersWriters, ReadYourWrites) {
  ReadersWritersDb db({.read_max = 4});
  db.write(1, 100);
  db.write(2, 200);
  EXPECT_EQ(db.read(1), 100);
  EXPECT_EQ(db.read(2), 200);
  EXPECT_EQ(db.read(3), 0);
}

TEST(ReadersWriters, ExclusionInvariantUnderLoad) {
  ReadersWritersDb db({.read_max = 4,
                       .read_time = std::chrono::microseconds(100),
                       .write_time = std::chrono::microseconds(100)});
  std::vector<std::jthread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      support::Rng rng(static_cast<std::uint64_t>(r));
      for (int i = 0; i < 40; ++i) db.read(rng.next_range(0, 9));
    });
  }
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      support::Rng rng(static_cast<std::uint64_t>(100 + w));
      for (int i = 0; i < 20; ++i) {
        db.write(rng.next_range(0, 9), i);
      }
    });
  }
  threads.clear();
  auto inv = db.invariants();
  EXPECT_FALSE(inv.exclusion_violated);
  EXPECT_EQ(inv.reads, 160u);
  EXPECT_EQ(inv.writes, 40u);
}

TEST(ReadersWriters, ReadersActuallyOverlap) {
  ReadersWritersDb db({.read_max = 4,
                       .read_time = std::chrono::milliseconds(5)});
  std::vector<CallHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(db.async_read(0));
  for (auto& h : handles) h.get();
  EXPECT_GE(db.invariants().max_concurrent_readers, 2)
      << "hidden procedure array must admit concurrent readers";
}

TEST(ReadersWriters, ReadMaxBoundsConcurrency) {
  ReadersWritersDb db({.read_max = 2,
                       .read_time = std::chrono::milliseconds(2)});
  std::vector<CallHandle> handles;
  for (int i = 0; i < 10; ++i) handles.push_back(db.async_read(0));
  for (auto& h : handles) h.get();
  EXPECT_LE(db.invariants().max_concurrent_readers, 2);
}

TEST(ReadersWriters, WriterNotStarvedByReaderStream) {
  ReadersWritersDb db({.read_max = 4,
                       .read_time = std::chrono::microseconds(300)});
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  std::vector<std::jthread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) db.read(0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::jthread writer([&] {
    db.write(0, 42);
    writer_done = true;
  });
  for (int i = 0; i < 1000 && !writer_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop = true;
  writer.join();
  readers.clear();
  EXPECT_TRUE(writer_done.load()) << "the WriterLast protocol must admit the writer";
  EXPECT_EQ(db.read(0), 42);
}

TEST(ReadersWriters, ReaderNotStarvedByWriterStream) {
  ReadersWritersDb db({.read_max = 4,
                       .write_time = std::chrono::microseconds(300)});
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  std::vector<std::jthread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&] {
      std::int64_t i = 0;
      while (!stop.load()) db.write(0, ++i);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::jthread reader([&] {
    db.read(0);
    reader_done = true;
  });
  for (int i = 0; i < 1000 && !reader_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop = true;
  reader.join();
  writers.clear();
  EXPECT_TRUE(reader_done.load());
}

// ---------------------------------------------------------------------------
// §2.7.1 dictionary with combining
// ---------------------------------------------------------------------------

TEST(Dictionary, SearchReturnsMeanings) {
  Dictionary dict(support::make_word_list(10), {});
  EXPECT_EQ(dict.search("w000003"), "meaning of w000003");
  EXPECT_EQ(dict.search("nonexistent"), "?");
}

TEST(Dictionary, DuplicateInFlightSearchesCombine) {
  Dictionary dict(support::make_word_list(4),
                  {.search_max = 8,
                   .search_time = std::chrono::milliseconds(10)});
  // 8 concurrent requests for the same word: one body execution suffices.
  std::vector<CallHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(dict.async_search("w000001"));
  for (auto& h : handles) {
    EXPECT_EQ(h.get()[0].as_string(), "meaning of w000001");
  }
  auto s = dict.stats();
  EXPECT_EQ(s.requests, 8u);
  EXPECT_LT(s.executed, 8u) << "combining must have saved executions";
  EXPECT_EQ(s.requests, s.executed + s.combined);
}

TEST(Dictionary, CombiningOffRunsEveryBody) {
  Dictionary dict(support::make_word_list(4),
                  {.search_max = 8,
                   .search_time = std::chrono::milliseconds(5),
                   .combining = false});
  std::vector<CallHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(dict.async_search("w000001"));
  for (auto& h : handles) h.get();
  auto s = dict.stats();
  EXPECT_EQ(s.executed, 8u);
  EXPECT_EQ(s.combined, 0u);
}

TEST(Dictionary, DistinctWordsSearchInParallelCorrectly) {
  auto words = support::make_word_list(64);
  Dictionary dict(words, {.search_max = 8});
  std::vector<CallHandle> handles;
  for (const auto& w : words) handles.push_back(dict.async_search(w));
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(handles[i].get()[0].as_string(), "meaning of " + words[i]);
  }
  EXPECT_EQ(dict.stats().requests, words.size());
}

TEST(Dictionary, ZipfWorkloadSavesWork) {
  auto words = support::make_word_list(32);
  Dictionary dict(words, {.search_max = 16,
                          .search_time = std::chrono::milliseconds(2)});
  support::ZipfGenerator zipf(words.size(), 1.2, 7);
  std::vector<CallHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(dict.async_search(words[zipf.next()]));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) handles[i].get();
  auto s = dict.stats();
  EXPECT_EQ(s.requests, 200u);
  EXPECT_LT(s.executed, s.requests);
}

// Voluntary context switches summed over this process's threads whose name
// starts with `prefix` (Linux /proc). A parked pool worker adds none until a
// task is submitted to its pool.
std::uint64_t voluntary_switches(const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind(prefix, 0) != 0) continue;
    std::ifstream status(task.path() / "status");
    for (std::string line; std::getline(status, line);) {
      constexpr std::string_view kKey = "voluntary_ctxt_switches:";
      if (line.rfind(kKey, 0) == 0) {
        total += std::stoull(line.substr(kKey.size()));
      }
    }
  }
  return total;
}

constexpr std::uint64_t kSequentialSearches = 50;

// Sequential searches, so no combining: every request runs its own body.
// Counting starts once the freshly started pool workers have parked (their
// switch count holds still), so their first park is not counted.
std::uint64_t pool_wakeups_over_searches(Dictionary& dict,
                                         const std::string& name) {
  const std::string workers = name + "/p";
  std::uint64_t before = voluntary_switches(workers);
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = voluntary_switches(workers);
    if (now == before) break;
    before = now;
  }
  for (std::uint64_t i = 0; i < kSequentialSearches; ++i) {
    EXPECT_EQ(dict.search("w000002"), "meaning of w000002");
  }
  return voluntary_switches(workers) - before;
}

TEST(Dictionary, ShortSearchBodyRunsOnTheManagerThread) {
  // Default options: search_time 0 declares Search inline_start, so no body
  // is handed to the Dictionary's pool and its parked workers stay parked.
  // A pooled search wakes a worker at least once.
  Dictionary dict(support::make_word_list(4), {.object_name = "DictInline"});
  EXPECT_LT(pool_wakeups_over_searches(dict, "DictInline"),
            kSequentialSearches / 10);
  EXPECT_GT(voluntary_switches("mgr:DictInline"), 0u);
  EXPECT_EQ(dict.stats().executed, kSequentialSearches);
}

TEST(Dictionary, SleepingSearchBodyStaysPooled) {
  // Each pooled body sleeps on a worker: at least one switch per search.
  Dictionary dict(support::make_word_list(4),
                  {.search_time = std::chrono::microseconds(100),
                   .object_name = "DictPooled"});
  EXPECT_GE(pool_wakeups_over_searches(dict, "DictPooled"),
            kSequentialSearches);
  EXPECT_EQ(dict.stats().executed, kSequentialSearches);
}

// The kernel checks a call's arity, not its kinds; the manager reads the
// word itself, so a non-string word must fail that call and nothing else.
TEST(Dictionary, NonStringSearchFailsTypedAndManagerSurvives) {
  Dictionary dict(support::make_word_list(4), {});
  const CallOptions opts{.deadline = std::chrono::seconds(5)};
  CallHandle bad = dict.object().async_call("Search", {Value(42)}, opts);
  try {
    bad.get();
    ADD_FAILURE() << "a non-string Search must fail";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBodyFailed);
  }
  CallHandle good = dict.object().async_call("Search", vals("w000001"), opts);
  EXPECT_EQ(good.get()[0].as_string(), "meaning of w000001");
  EXPECT_EQ(dict.object().manager_error(), nullptr);
  EXPECT_EQ(dict.stats().requests, 1u);
}

TEST(Dictionary, NonStringSearchOverRpcFailsTypedAndManagerSurvives) {
  Dictionary dict(support::make_word_list(4), {});
  net::Network network(net::LinkLatency{std::chrono::microseconds(50), {}});
  net::Node client(network, "client");
  net::Node server(network, "server");
  server.host(dict.object());
  net::CallOptions opts;
  opts.deadline = std::chrono::seconds(5);

  auto bad = client.call("Dictionary", "Search", {Value(42)}, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().cause(), net::RpcCause::kRemoteError);
  auto good = client.call("Dictionary", "Search", vals("w000001"), opts);
  ASSERT_TRUE(good.ok()) << good.error().what();
  EXPECT_EQ(good.value()[0].as_string(), "meaning of w000001");
  EXPECT_EQ(dict.object().manager_error(), nullptr);
}

// ---------------------------------------------------------------------------
// §2.7.1 dictionary, multiactive: the kernel admits searches and inserts
// under the manager's standing orders (DESIGN.md §4.8)
// ---------------------------------------------------------------------------

TEST(Dictionary, MultiactiveShortSearchRunsOnItsCaller) {
  // An inline_start search admitted in its caller's async_call runs there:
  // no body is handed to the pool.
  Dictionary dict(support::make_word_list(4),
                  {.multiactive = true, .object_name = "DictMulti"});
  EXPECT_LT(pool_wakeups_over_searches(dict, "DictMulti"),
            kSequentialSearches / 10);
  const Dictionary::Stats st = dict.stats();
  EXPECT_EQ(st.executed, kSequentialSearches);
  EXPECT_EQ(st.requests, st.executed);
  EXPECT_EQ(st.combined, 0u);
}

TEST(Dictionary, MultiactiveSearchesAndInsertsReturnCorrectMeanings) {
  const auto words = support::make_word_list(64);
  Dictionary dict(words, {.search_max = 4, .multiactive = true});
  constexpr int kThreads = 4, kRounds = 200;
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::string& w = words[(t * 31 + i) % words.size()];
        EXPECT_EQ(dict.search(w), "meaning of " + w);
        if (i % 10 == 0) {
          // Each caller defines words of its own, then reads them back.
          const std::string fresh =
              "new" + std::to_string(t) + "_" + std::to_string(i);
          dict.insert(fresh, "defined by " + std::to_string(t));
          EXPECT_EQ(dict.search(fresh), "defined by " + std::to_string(t));
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  const Dictionary::Stats st = dict.stats();
  const std::uint64_t inserts = kThreads * (kRounds / 10);
  EXPECT_EQ(st.inserts, inserts);
  EXPECT_EQ(st.executed, kThreads * kRounds + inserts);
  EXPECT_EQ(st.requests, st.executed);
  EXPECT_EQ(st.combined, 0u);
  EXPECT_EQ(dict.object().pending(dict.object().entry("Search")), 0u);
  EXPECT_EQ(dict.object().manager_error(), nullptr);
}

// With no kind check in front of it, the body's own read of the word fails
// the call. A call with a deadline is guarded, so the manager's arm starts
// it; one without is admitted by the kernel in its caller's async_call.
TEST(Dictionary, MultiactiveNonStringSearchFailsTypedAndLaterOnesSucceed) {
  Dictionary dict(support::make_word_list(4), {.multiactive = true});
  const CallOptions guarded{.deadline = std::chrono::seconds(5)};
  for (const CallOptions& opts : {CallOptions{}, guarded}) {
    CallHandle bad = dict.object().async_call("Search", {Value(42)}, opts);
    try {
      bad.get();
      ADD_FAILURE() << "a non-string Search must fail";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kTypeMismatch);
    }
    CallHandle good = dict.object().async_call("Search", vals("w000001"), opts);
    EXPECT_EQ(good.get()[0].as_string(), "meaning of w000001");
  }
  EXPECT_EQ(dict.object().manager_error(), nullptr);
  EXPECT_EQ(dict.stats().requests, 4u);
}

TEST(Dictionary, MultiactiveNonStringSearchOverRpcFailsTypedAndLaterOnesSucceed) {
  Dictionary dict(support::make_word_list(4), {.multiactive = true});
  net::Network network(net::LinkLatency{std::chrono::microseconds(50), {}});
  net::Node client(network, "client");
  net::Node server(network, "server");
  server.host(dict.object());
  net::CallOptions opts;
  opts.deadline = std::chrono::seconds(5);

  auto bad = client.call("Dictionary", "Search", {Value(42)}, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().cause(), net::RpcCause::kRemoteError);
  auto good = client.call("Dictionary", "Search", vals("w000001"), opts);
  ASSERT_TRUE(good.ok()) << good.error().what();
  EXPECT_EQ(good.value()[0].as_string(), "meaning of w000001");
  EXPECT_EQ(dict.object().manager_error(), nullptr);
}

// ---------------------------------------------------------------------------
// §2.8.1 printer spooler
// ---------------------------------------------------------------------------

TEST(Spooler, AllJobsPrintNoPrinterOverlap) {
  PrinterSpooler spooler({.printers = 3, .print_max = 8,
                          .page_time = std::chrono::microseconds(200)});
  std::vector<CallHandle> handles;
  for (int j = 0; j < 30; ++j) {
    handles.push_back(spooler.async_print("file" + std::to_string(j), 1 + j % 3));
  }
  for (auto& h : handles) h.get();
  auto s = spooler.stats();
  EXPECT_EQ(s.jobs, 30u);
  EXPECT_FALSE(s.printer_overlap) << "a printer must never run two jobs at once";
  const auto total = std::accumulate(s.jobs_per_printer.begin(),
                                     s.jobs_per_printer.end(), 0ull);
  EXPECT_EQ(total, 30u);
}

TEST(Spooler, UsesAllPrintersUnderLoad) {
  PrinterSpooler spooler({.printers = 3, .print_max = 8,
                          .page_time = std::chrono::milliseconds(1)});
  std::vector<CallHandle> handles;
  for (int j = 0; j < 24; ++j) handles.push_back(spooler.async_print("f", 2));
  for (auto& h : handles) h.get();
  auto s = spooler.stats();
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_GT(s.jobs_per_printer[p], 0u) << "printer " << p << " idle";
  }
}

TEST(Spooler, SinglePrinterSerializesEverything) {
  PrinterSpooler spooler({.printers = 1, .print_max = 4,
                          .page_time = std::chrono::microseconds(100)});
  std::vector<CallHandle> handles;
  for (int j = 0; j < 10; ++j) handles.push_back(spooler.async_print("f", 1));
  for (auto& h : handles) h.get();
  auto s = spooler.stats();
  EXPECT_EQ(s.jobs_per_printer[0], 10u);
  EXPECT_FALSE(s.printer_overlap);
}

// ---------------------------------------------------------------------------
// §2.8.2 parallel bounded buffer
// ---------------------------------------------------------------------------

class ParallelBufferModels : public ::testing::TestWithParam<ProcessModel> {};

TEST_P(ParallelBufferModels, NoLossNoDuplicationManyProducersConsumers) {
  ParallelBoundedBuffer buffer({.capacity = 8,
                                .producer_max = 4,
                                .consumer_max = 4,
                                .model = GetParam()});
  constexpr int kProducers = 4, kPerProducer = 50;
  std::mutex mu;
  std::multiset<std::int64_t> received;
  std::vector<std::jthread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        buffer.deposit(Value(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < kProducers * kPerProducer / 4; ++i) {
        const std::int64_t v = buffer.remove().as_int();
        std::scoped_lock lock(mu);
        received.insert(v);
      }
    });
  }
  threads.clear();
  EXPECT_EQ(received.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (int v = 0; v < kProducers * kPerProducer; ++v) {
    EXPECT_EQ(received.count(v), 1u) << "message " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ParallelBufferModels,
                         ::testing::Values(ProcessModel::kSlotBound,
                                           ProcessModel::kPooled,
                                           ProcessModel::kDynamic),
                         model_name);

TEST(ParallelBuffer, CopiesOverlap) {
  // Long messages: the §2.8.2 design must copy them concurrently. On a
  // single-core box wall-clock overlap of two copies is probabilistic (a
  // copy shorter than a scheduler timeslice finishes unpreempted), so drive
  // rounds of traffic until overlap is observed, bounded by a generous cap.
  ParallelBoundedBuffer buffer({.capacity = 16,
                                .producer_max = 4,
                                .consumer_max = 4});
  const std::string long_msg(1 << 20, 'x');
  for (int round = 0; round < 5 && buffer.stats().max_concurrent_copies < 2;
       ++round) {
    std::vector<std::jthread> threads;
    for (int p = 0; p < 4; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < 10; ++i) buffer.deposit(Value(long_msg));
      });
    }
    for (int c = 0; c < 4; ++c) {
      threads.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          EXPECT_EQ(buffer.remove().as_string().size(), long_msg.size());
        }
      });
    }
  }
  EXPECT_GE(buffer.stats().max_concurrent_copies, 2)
      << "deposit/remove bodies should run in parallel";
}

TEST(ParallelBuffer, CapacityBackpressure) {
  ParallelBoundedBuffer buffer({.capacity = 2,
                                .producer_max = 2,
                                .consumer_max = 2});
  buffer.deposit(Value(1));
  buffer.deposit(Value(2));
  auto blocked = buffer.async_deposit(Value(3));
  EXPECT_FALSE(blocked.wait_for(std::chrono::milliseconds(30)))
      << "no free slot: the manager must not start the deposit";
  buffer.remove();
  blocked.wait();
}

// ---------------------------------------------------------------------------
// Disk scheduler (pri guards)
// ---------------------------------------------------------------------------

TEST(DiskScheduler, ServesAllRequests) {
  DiskScheduler disk({.policy = DiskScheduler::Policy::kShortestSeekFirst});
  std::vector<CallHandle> handles;
  for (int i = 0; i < 50; ++i) handles.push_back(disk.async_access((i * 37) % 200));
  for (auto& h : handles) h.get();
  EXPECT_EQ(disk.stats().requests, 50u);
}

TEST(DiskScheduler, SstfBeatsFifoOnSeekDistance) {
  // Same request sequence, both policies; SSTF must travel less. Requests
  // are issued in bursts so the queue has something to reorder.
  support::Rng rng(13);
  std::vector<std::int64_t> cylinders;
  for (int i = 0; i < 120; ++i) cylinders.push_back(rng.next_range(0, 199));

  auto run = [&](DiskScheduler::Policy policy) {
    DiskScheduler disk({.queue_depth = 16, .policy = policy});
    std::vector<CallHandle> handles;
    for (std::size_t i = 0; i < cylinders.size(); ++i) {
      handles.push_back(disk.async_access(cylinders[i]));
      if ((i + 1) % 12 == 0) {
        for (auto& h : handles) h.get();
        handles.clear();
      }
    }
    for (auto& h : handles) h.get();
    return disk.stats().total_seek_distance;
  };

  const auto fifo = run(DiskScheduler::Policy::kFifo);
  const auto sstf = run(DiskScheduler::Policy::kShortestSeekFirst);
  EXPECT_LT(sstf, fifo) << "pri-guard SSTF should reduce total seek";
}

}  // namespace
}  // namespace alps::apps
