// Streaming churn soak: grow / ingest / crash / restart / republish / swap
// for ChaosIterations() virtual-time iterations while four request threads
// hammer the serving runtime. The invariants under test are the ISSUE's
// three headline guarantees:
//
//   1. zero crashes the recovery protocol cannot absorb — every simulated
//      kill (injected WAL/ledger/artifact faults, plus clean restarts) is
//      followed by a reopen whose state is bit-identical to a shadow
//      rebuilt from the deterministic delta schedule;
//   2. zero ε double-spends — the ledger audits clean at the end and its
//      replayed spend matches the session's accountant exactly;
//   3. serving never stops — every response observed by the request
//      threads comes from a known published generation (or its degraded
//      fallback tier), and a corrupt artifact pushed at the runtime rolls
//      back without disturbing the live epoch.
//
// The soak is deliberately in-process: a "crash" destroys the pipeline
// object mid-protocol (the injected fault already left the disk state torn
// exactly as a kill would) and reopens it from disk. The out-of-process
// kill matrix lives in ci/stream_soak.sh.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "community/incremental.h"
#include "core/recommendation.h"
#include "dp/ledger.h"
#include "serve/runtime.h"
#include "stream/ingester.h"
#include "stream/pipeline.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

int64_t ChaosIterations() {
  if (const char* env = std::getenv("PRIVREC_CHAOS_ITERS")) {
    return std::max<int64_t>(1, std::atoll(env));
  }
  return 500;
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr graph::NodeId kUsers = 40;
constexpr graph::ItemId kItems = 24;
constexpr int64_t kTopN = 5;
constexpr uint64_t kScheduleSeed = 17;

// The deterministic delta schedule: position i always yields the same
// record, so a shadow state can be rebuilt from scratch up to any journal
// position after a crash.
stream::WalRecord ScheduleRecord(int64_t i) {
  const uint64_t bits =
      SplitMix64(kScheduleSeed ^ (0x5bd1e995ull * static_cast<uint64_t>(i + 1)));
  const uint64_t kind = bits % 100;
  const auto u = static_cast<graph::NodeId>((bits >> 8) % kUsers);
  if (kind < 55) {
    auto v = static_cast<graph::NodeId>((bits >> 32) % kUsers);
    if (v == u) v = (v + 1) % kUsers;
    return stream::WalRecord::AddSocial(u, v);
  }
  if (kind < 70) {
    auto v = static_cast<graph::NodeId>((bits >> 24) % kUsers);
    if (v == u) v = (v + 1) % kUsers;
    return stream::WalRecord::RemoveSocial(u, v);
  }
  const auto item = static_cast<graph::ItemId>((bits >> 40) % kItems);
  if (kind < 92) {
    return stream::WalRecord::AddPreference(
        u, item, 1.0 + static_cast<double>((bits >> 56) % 5));
  }
  return stream::WalRecord::RemovePreference(u, item);
}

Status ApplyDelta(stream::StreamPipeline* pipeline,
                  const stream::WalRecord& record) {
  switch (record.type) {
    case stream::WalRecordType::kAddSocial:
      return pipeline->AddSocialEdge(record.a, record.b);
    case stream::WalRecordType::kRemoveSocial:
      return pipeline->RemoveSocialEdge(record.a, record.b);
    case stream::WalRecordType::kAddPreference:
      return pipeline->AddPreference(record.a, record.b, record.weight());
    default:
      return pipeline->RemovePreference(record.a, record.b);
  }
}

struct Expectation {
  std::vector<core::RecommendationList> lists;
  core::RecommendationList fallback;
};

TEST(StreamSoak, ChurnCrashRepublishSwapUnderConcurrentRequests) {
  if (!fault::kCompiledIn) GTEST_SKIP() << "fault injection compiled out";
  const fs::path dir = fs::temp_directory_path() / "privrec_stream_soak";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_directories(dir / "artifacts");

  std::vector<graph::NodeId> probe_users;
  for (graph::NodeId u = 0; u < kUsers; u += 3) probe_users.push_back(u);

  stream::StreamPipelineOptions options;
  options.ingest.num_users = kUsers;
  options.ingest.num_items = kItems;
  options.ingest.wal_path = (dir / "stream.wal").string();
  options.republish.min_deltas_between = 6;
  options.republish.min_growth = 0.4;
  // A wide uniform schedule: ε_t is constant and the budget outlasts every
  // publish the soak can trigger — exhaustion is the example/CI's concern,
  // the soak isolates the crash/swap invariants.
  options.session.total_epsilon = 10.0;
  options.session.planned_snapshots = 500;
  options.session.seed = 23;
  options.session.ledger_path = (dir / "budget.ledger").string();
  options.session.artifact_dir = (dir / "artifacts").string();

  serve::ServeRuntimeOptions runtime_options;
  runtime_options.swap.spec.mechanism = "Cluster";
  runtime_options.swap.adopt_artifact_epsilon = true;
  // The graph grows between snapshots, so generations legitimately carry
  // different dataset fingerprints.
  runtime_options.swap.pin_graph_hash = false;
  runtime_options.admission.max_concurrency = 2;
  runtime_options.admission.queue_depth = 2;
  runtime_options.admission.retry_after_ms = 1;
  runtime_options.breaker.failure_threshold = 3;
  runtime_options.breaker.cooldown_ms = 1;
  runtime_options.breaker.probe_retry.max_attempts = 1;
  serve::ServeRuntime runtime(runtime_options);

  // The per-generation oracle, keyed by provenance seed and grown as the
  // pipeline publishes. Entries are inserted BEFORE the runtime activates
  // the generation, so the request threads can never see an unknown seed.
  std::map<uint64_t, Expectation> expected;
  std::mutex expected_mu;

  std::atomic<int64_t> failures{0};
  std::mutex failure_mu;
  std::string first_failure;
  auto fail = [&](const std::string& message) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failure_mu);
    if (first_failure.empty()) first_failure = message;
  };

  // The pipeline is NOT wired to the runtime: the soak activates published
  // artifacts itself so the oracle insert is ordered before the swap (and
  // so injected publish faults can never half-activate a generation).
  auto reopen = [&]() -> std::optional<stream::StreamPipeline> {
    auto opened = stream::StreamPipeline::Open(options);
    if (!opened.ok()) {
      fail("pipeline reopen failed: " + opened.status().ToString());
      return std::nullopt;
    }
    return std::move(opened).value();
  };

  // The newest published artifact, for the rollback drill.
  std::string last_artifact;

  // Publishes one snapshot, records its oracle entry, and swaps it live.
  // Returns false when Republish failed (an injected crash).
  auto publish = [&](stream::StreamPipeline* pipeline) -> bool {
    auto outcome = pipeline->Republish(probe_users, kTopN);
    if (!outcome.ok()) return false;
    if (!outcome->artifact_path.empty()) {
      last_artifact = outcome->artifact_path;
    }
    auto engine = serving::ServingEngine::Load(outcome->artifact_path);
    if (!engine.ok()) {
      fail("published artifact does not load: " +
           engine.status().ToString());
      return true;
    }
    serving::ServeSpec spec;
    spec.mechanism = "Cluster";
    spec.epsilon = engine->model().provenance.epsilon;
    auto server = serving::MakeServeRecommender(&*engine, spec);
    if (!server.ok()) {
      fail("published artifact does not serve: " +
           server.status().ToString());
      return true;
    }
    Expectation e;
    e.lists = server->Recommend(probe_users, kTopN).lists;
    e.fallback = core::TopNFromDense(engine->global_average(), kTopN);
    // The release the session emitted and what the artifact serves must be
    // the same bits — the artifact IS the release.
    if (!outcome->release.stale && outcome->release.lists != e.lists) {
      fail("release lists diverge from the published artifact's serving");
    }
    const uint64_t seed = engine->model().provenance.seed;
    {
      std::lock_guard<std::mutex> lock(expected_mu);
      expected[seed] = std::move(e);
    }
    Status swapped = runtime.Activate(outcome->artifact_path);
    // An open reload breaker (from a recent rollback drill) may fail this
    // swap fast; the previous epoch keeps serving, which is the contract.
    if (!swapped.ok() &&
        swapped.code() != StatusCode::kResourceExhausted) {
      fail("swap of a good artifact failed: " + swapped.ToString());
    }
    return true;
  };

  auto opened = reopen();
  ASSERT_TRUE(opened.has_value());
  std::optional<stream::StreamPipeline> pipeline = std::move(opened);

  // Prime the first generation so the request threads always have an
  // epoch to serve from.
  while (pipeline->RepublishDue().empty()) {
    ASSERT_TRUE(
        ApplyDelta(&*pipeline,
                   ScheduleRecord(pipeline->ingester().delta_records()))
            .ok());
  }
  ASSERT_TRUE(publish(&*pipeline));
  ASSERT_GT(runtime.swapper().current_epoch(), 0);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> served_ok{0};
  std::atomic<int64_t> degraded{0};
  auto worker = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      serve::ServeRequest request{probe_users, kTopN, /*deadline_ms=*/2000};
      serve::ServeResponse response = runtime.Handle(request);
      Expectation snapshot;
      {
        std::lock_guard<std::mutex> lock(expected_mu);
        auto it = expected.find(response.artifact_seed);
        if (it == expected.end()) {
          fail("response from unknown generation (seed " +
               std::to_string(response.artifact_seed) +
               "): an unpublished or corrupt artifact became visible");
          continue;
        }
        snapshot = it->second;
      }
      if (response.status.ok()) {
        if (response.epoch <= 0) {
          fail("ok response without an epoch id");
        } else if (response.batch.lists != snapshot.lists) {
          fail("torn or stale read: response bits do not match the "
               "generation that served it (seed " +
               std::to_string(response.artifact_seed) + ")");
        }
        served_ok.fetch_add(1, std::memory_order_relaxed);
      } else if (response.status.code() == StatusCode::kResourceExhausted ||
                 response.status.code() == StatusCode::kDeadlineExceeded) {
        if (response.degraded_fallback) {
          for (const core::RecommendationList& list : response.batch.lists) {
            if (list != snapshot.fallback) {
              fail("fallback ranking does not match the serving epoch's "
                   "global-average row");
              break;
            }
          }
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        fail("unexpected serve status: " + response.status.ToString());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);

  // The fault rotations. Delta faults tear the WAL append/sync; publish
  // faults kill the intent→commit→mark protocol at each stage. Every
  // armed point lives only on this thread's pipeline path — the request
  // threads never touch the WAL, the ledger, or artifact writes.
  struct Fault {
    const char* point;
    fault::FaultKind kind;
  };
  const std::vector<Fault> delta_faults = {
      {"stream.wal.append", fault::FaultKind::kIoError},
      {"stream.wal.append", fault::FaultKind::kShortRead},
      {"stream.wal.sync", fault::FaultKind::kIoError},
  };
  const std::vector<Fault> publish_faults = {
      {"ledger.append", fault::FaultKind::kIoError},
      {"dynamic.after_journal", fault::FaultKind::kIoError},
      {"artifact.write", fault::FaultKind::kIoError},
      {"artifact.rename", fault::FaultKind::kIoError},
      {"ledger.append", fault::FaultKind::kShortRead},
  };

  const int64_t iterations = ChaosIterations();
  int64_t crashes = 0;
  int64_t publish_attempts = 0;
  int64_t rollback_drills = 0;
  size_t delta_rotation = 0;
  size_t publish_rotation = 0;

  // Simulates the kill: the pipeline object dies mid-protocol, faults are
  // cleared (the "machine" came back), and the reopened pipeline must be
  // bit-identical to a shadow rebuilt from the schedule prefix. A pending
  // paid release is drained before any new delta, per the crash model.
  auto crash_and_recover = [&]() -> bool {
    pipeline.reset();
    fault::FaultInjector::Instance().Reset();
    auto recovered = reopen();
    if (!recovered.has_value()) return false;
    pipeline = std::move(recovered);
    ++crashes;

    const int64_t position = pipeline->ingester().delta_records();
    stream::EdgeStreamOptions shadow_options;
    shadow_options.num_users = kUsers;
    shadow_options.num_items = kItems;  // unjournaled shadow
    community::IncrementalCommunity shadow_community(kUsers,
                                                     options.community);
    auto shadow = stream::EdgeStreamIngester::Open(
        shadow_options,
        [&shadow_community](const stream::WalRecord& record,
                            const stream::EdgeStreamIngester&) {
          if (record.type == stream::WalRecordType::kAddSocial) {
            shadow_community.AddEdge(record.a, record.b);
          } else if (record.type == stream::WalRecordType::kRemoveSocial) {
            shadow_community.RemoveEdge(record.a, record.b);
          }
        });
    if (!shadow.ok()) {
      fail("shadow ingester failed: " + shadow.status().ToString());
      return false;
    }
    for (int64_t i = 0; i < position; ++i) {
      Status applied = shadow->Apply(ScheduleRecord(i));
      if (!applied.ok()) {
        fail("shadow replay failed: " + applied.ToString());
        return false;
      }
    }
    if (pipeline->ingester().GraphFingerprint() !=
        shadow->GraphFingerprint()) {
      fail("recovered graph fingerprint diverges from the schedule shadow "
           "at position " + std::to_string(position));
    }
    if (pipeline->community().labels() != shadow_community.labels()) {
      fail("recovered community labels diverge from the schedule shadow");
    }
    if (pipeline->HasPendingRelease()) {
      ++publish_attempts;
      if (!publish(&*pipeline)) {
        fail("draining the pending paid release failed without a fault");
        return false;
      }
    }
    return true;
  };

  for (int64_t iter = 0; iter < iterations && failures.load() == 0; ++iter) {
    // Roughly every 7th iteration, one delta-path fault.
    const bool arm_delta = iter % 7 == 3;
    if (arm_delta) {
      const Fault& f = delta_faults[delta_rotation++ % delta_faults.size()];
      fault::FaultInjector::Instance().ArmNth(f.point, f.kind, 1);
    }
    Status applied = ApplyDelta(
        &*pipeline, ScheduleRecord(pipeline->ingester().delta_records()));
    if (arm_delta) {
      if (applied.ok()) {
        // The sync fault can land on an un-synced append cadence; the
        // delta still applied. Clear the armed point and move on.
        fault::FaultInjector::Instance().Reset();
      } else if (!crash_and_recover()) {
        break;
      }
    } else if (!applied.ok()) {
      fail("unfaulted delta apply failed: " + applied.ToString());
      break;
    }

    // A clean restart (no fault, no torn state) every 83 iterations.
    if (iter % 83 == 82 && !crash_and_recover()) break;

    if (!pipeline->RepublishDue().empty()) {
      ++publish_attempts;
      const bool arm_publish = publish_attempts % 4 == 2;
      if (arm_publish) {
        const Fault& f =
            publish_faults[publish_rotation++ % publish_faults.size()];
        fault::FaultInjector::Instance().ArmNth(f.point, f.kind, 1);
      }
      const bool published = publish(&*pipeline);
      if (arm_publish) {
        if (!published) {
          if (!crash_and_recover()) break;
        } else {
          // The armed stage was not reached on this publish path (e.g. a
          // rename fault when the artifact reused a resumed file).
          fault::FaultInjector::Instance().Reset();
        }
      } else if (!published) {
        fail("unfaulted publish failed");
        break;
      }
    }

    // Rollback drill: push a corrupt artifact at the runtime; the live
    // epoch must not move.
    if (iter % 61 == 60 && !last_artifact.empty()) {
      ++rollback_drills;
      const int64_t epoch_before = runtime.swapper().current_epoch();
      std::string bytes = ReadAllBytes(last_artifact);
      // Flip a bit inside the manifest's cluster_of payload (located via
      // the section table: alignment padding is not CRC-covered). The copy
      // sits beside the original so its shard names resolve, and only the
      // payload CRC can reject it.
      auto view = serving::ParseAlignedContainer(
          bytes.data(), bytes.size(), serving::kManifestMagic,
          serving::kShardFormatVersion, "drill manifest");
      const serving::AlignedSectionView* cluster_of = nullptr;
      if (view.ok()) {
        for (const serving::AlignedSectionView& sec : view->sections) {
          if (sec.id == static_cast<uint32_t>(
                            serving::ManifestSectionId::kClusterOf)) {
            cluster_of = &sec;
          }
        }
      }
      if (cluster_of == nullptr || cluster_of->size == 0) {
        fail("rollback drill could not locate the manifest's cluster_of");
      } else {
        const uint64_t at = cluster_of->offset + cluster_of->size / 2;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
        const std::string corrupt =
            options.session.artifact_dir + "/corrupt.pvram";
        WriteAllBytes(corrupt, bytes);
        Status status = runtime.Activate(corrupt);
        if (status.ok()) {
          fail("corrupt artifact activated");
        } else if (runtime.swapper().current_epoch() != epoch_before) {
          fail("rollback drill moved the live epoch");
        }
      }
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  fault::FaultInjector::Instance().Reset();

  EXPECT_EQ(failures.load(), 0) << first_failure;
  EXPECT_GT(crashes, 0) << "the soak never exercised a crash";
  EXPECT_GT(publish_attempts, 2);
  EXPECT_GT(runtime.swapper().swaps(), 0);
  EXPECT_GT(served_ok.load(), 0) << "the request threads never got an "
                                    "ok response";
  if (iterations >= 400) {
    EXPECT_GT(rollback_drills, 0);
  }

  // The ledger is the authority on ε: the audit must be clean and its
  // replayed spend must equal the live accountant bit-for-bit. The crash
  // storms above may legitimately have charged MORE than a fault-free run
  // (at-least-once publication) — never twice for one intent.
  ASSERT_TRUE(pipeline.has_value());
  auto audit = dp::AuditLedgerReplay(options.session.ledger_path);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit->ok()) << audit->ToString();
  EXPECT_EQ(audit->epsilon_spent, pipeline->session().epsilon_spent());
  EXPECT_EQ(audit->commits, pipeline->session().snapshots_processed());
  EXPECT_EQ(audit->uncommitted, 0);
}

}  // namespace
}  // namespace privrec
