// Correctness suite for the artifact layout (.pvram manifest + shard
// files) and the mmap zero-copy serve path:
//   - bit-identity: every mechanism served from an artifact (any K, mmap
//     or read-fallback, any thread count) reproduces the exact bytes of
//     the in-memory route, invocation by invocation;
//   - byte-determinism of the save across thread counts;
//   - loading accepts manifests only: shard files, foreign files, files
//     shorter than a header and future format versions are typed errors;
//   - corruption fuzzing: truncation, bit flips, missing / resized shard
//     files, cross-artifact shard mixing and armed fault points each fail
//     closed with their own status code, never a crash or a partial load;
//   - crash-safe overwrites: a failure at any write or rename of a save
//     leaves the previous generation loadable, and the next commit sweeps
//     the debris;
//   - the untrusted-header overflow regression (vector sizing must be
//     validated by division, not a wrappable product);
//   - the shard layout as seen by the serve runtime's telemetry and
//     statusz.

// Isolation guarantee, checked at the include level exactly like
// artifact_test: the serving-side headers come FIRST and must not pull in
// the private graph containers.
#include "artifact/mapped.h"
#include "artifact/model.h"
#include "artifact/model_io.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "serve/runtime.h"
#include "serve/statusz.h"
#include "serve/telemetry.h"

#if defined(PRIVREC_GRAPH_PREFERENCE_GRAPH_H_) || \
    defined(PRIVREC_GRAPH_SOCIAL_GRAPH_H_)
#error "serving headers must not include the private graph containers"
#endif

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/builder.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "community/louvain.h"
#include "core/recommender_factory.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/wide_event.h"
#include "similarity/common_neighbors.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

using core::RecommendationList;

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class ShardedArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("privrec_sharded_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    dataset_ = data::MakeTinyDataset(/*num_users=*/120, /*num_items=*/80,
                                     /*seed=*/7);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    louvain_ = community::RunLouvain(dataset_.social,
                                     {.restarts = 2, .seed = 3});
    for (graph::NodeId u = 0; u < dataset_.social.num_nodes(); ++u) {
      users_.push_back(u);
    }
  }
  void TearDown() override {
    fault::FaultInjector::Instance().Reset();
    unsetenv("PRIVREC_NO_MMAP");
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // A full artifact (reference sections + low-rank factors) so all six
  // mechanisms can serve from it.
  serving::ArtifactModel BuildFullModel(uint64_t seed = kSeed) {
    artifact::ModelArtifactBuilder builder(&dataset_.social,
                                           &dataset_.preferences);
    builder.SetPartition(&louvain_.partition);
    builder.SetWorkload(&workload_);
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = seed;
    build_options.include_reference_sections = true;
    build_options.include_lowrank = true;
    build_options.lrm_target_rank = 16;
    build_options.lrm_seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(*model);
  }

  static serving::ServeSpec SpecFor(const std::string& mechanism) {
    serving::ServeSpec spec;
    spec.mechanism = mechanism;
    spec.epsilon = kEps;
    spec.seed = kSeed;
    spec.gs_group_size = 8;
    return spec;
  }

  // Serves two successive batches from a fresh ServeRecommender — the
  // fresh-noise mechanisms advance their RNG stream per call, so both
  // invocations must be compared.
  std::vector<std::vector<RecommendationList>> ServeTwice(
      serving::ServingEngine* engine, const std::string& mechanism) {
    auto server = serving::MakeServeRecommender(engine, SpecFor(mechanism));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    std::vector<std::vector<RecommendationList>> out;
    out.push_back((*server)->Recommend(users_, kTopN).lists);
    out.push_back((*server)->Recommend(users_, kTopN).lists);
    return out;
  }

  // Path of shard k of a saved set, as its manifest names it (shard files
  // are named by content, so tests look the name up rather than build it).
  static std::string ShardPath(const std::string& manifest, size_t k) {
    auto mapped = serving::MappedArtifact::Open(manifest, {});
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    if (!mapped.ok() || k >= (*mapped)->shard_table().size()) return "";
    return (fs::path(manifest).parent_path() /
            (*mapped)->shard_table()[k].file)
        .string();
  }

  static constexpr int64_t kTopN = 10;
  static constexpr double kEps = 0.7;
  static constexpr uint64_t kSeed = 42;

  fs::path dir_;
  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  core::RecommenderContext context_;
  community::LouvainResult louvain_;
  std::vector<graph::NodeId> users_;
};

// ------------------------------------------------------------ bit-identity

// The matrix: six mechanisms x K in {1,2,7} x {mmap, read-fallback} x
// thread counts {1,4}, every cell against a single
// 1-thread in-memory reference. The release is frozen at build time and
// sharding is pure post-processing, so every cell must be BYTE-identical.
TEST_F(ShardedArtifactTest, AllMechanismsBitIdenticalAcrossShardsAndModes) {
  serving::ArtifactModel model = BuildFullModel();

  const std::vector<int64_t> shard_counts = {1, 2, 7};
  std::vector<std::string> manifests;
  for (int64_t k : shard_counts) {
    const std::string path = Path("full_k" + std::to_string(k) + ".pvram");
    ASSERT_TRUE(
        serving::SaveShardedArtifact(model, path, {.shards = k}).ok());
    manifests.push_back(path);
  }

  for (const char* mechanism :
       {"Cluster", "Exact", "NOU", "NOE", "GS", "LRM"}) {
    // Reference: the in-memory engine at one thread.
    std::vector<std::vector<RecommendationList>> reference;
    {
      ScopedThreadCount baseline(1);
      serving::ArtifactModel copy = model;
      auto engine = serving::ServingEngine::FromModel(std::move(copy));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      reference = ServeTwice(&*engine, mechanism);
    }

    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
      ScopedThreadCount scoped(threads);
      for (size_t i = 0; i < manifests.size(); ++i) {
        for (bool use_mmap : {true, false}) {
          serving::MapOptions map_options;
          map_options.use_mmap = use_mmap;
          auto mapped =
              serving::MappedArtifact::Open(manifests[i], map_options);
          ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
          EXPECT_EQ((*mapped)->mmap_backed(), use_mmap);
          auto engine = serving::ServingEngine::FromMapped(*mapped);
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          EXPECT_EQ(engine->shard_count(), (*mapped)->shard_count());
          EXPECT_EQ(ServeTwice(&*engine, mechanism), reference)
              << mechanism << " K=" << shard_counts[i]
              << " mmap=" << use_mmap << " threads=" << threads;
        }
      }
    }
  }
}

// Two builds with identical options must shard into identical bytes at any
// thread count — manifest and every shard file are reproducible products.
TEST_F(ShardedArtifactTest, ShardedBytesDeterministicAcrossThreadCounts) {
  constexpr int64_t kShards = 3;
  std::vector<std::string> first;  // manifest bytes + each shard's bytes
  for (int64_t threads : {int64_t{1}, int64_t{2}, HardwareThreads()}) {
    ScopedThreadCount scoped(threads);
    serving::ArtifactModel model = BuildFullModel();
    // Same file NAME in per-thread-count directories: the manifest's shard
    // table embeds the relative shard file names, which must not vary.
    const fs::path sub = dir_ / ("t" + std::to_string(threads));
    fs::create_directories(sub);
    const std::string path = (sub / "det.pvram").string();
    ASSERT_TRUE(
        serving::SaveShardedArtifact(model, path, {.shards = kShards}).ok());

    std::vector<std::string> files;
    files.push_back(ReadAllBytes(path));
    auto mapped = serving::MappedArtifact::Open(path, {});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    for (uint32_t s = 0; s < (*mapped)->shard_count(); ++s) {
      files.push_back(ReadAllBytes(ShardPath(path, s)));
    }
    for (const std::string& bytes : files) ASSERT_FALSE(bytes.empty());
    if (first.empty()) {
      first = files;
    } else {
      ASSERT_EQ(files.size(), first.size()) << "threads=" << threads;
      for (size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(files[i], first[i])
            << "file " << i << " threads=" << threads;
      }
    }
  }
}

// A shard must own whole clusters, so absurd K clamps to the cluster count
// and still serves the same bytes.
TEST_F(ShardedArtifactTest, ShardCountClampsToClusterCount) {
  serving::ArtifactModel model = BuildFullModel();
  const int64_t num_clusters =
      static_cast<int64_t>(model.partition.sizes.size());

  const std::string path = Path("clamped.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, path, {.shards = 1000}).ok());
  auto mapped = serving::MappedArtifact::Open(path, {});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GE((*mapped)->shard_count(), 1u);
  EXPECT_LE((*mapped)->shard_count(),
            static_cast<uint32_t>(std::max<int64_t>(num_clusters, 1)));

  std::vector<std::vector<RecommendationList>> reference;
  {
    auto engine = serving::ServingEngine::FromModel(std::move(model));
    ASSERT_TRUE(engine.ok());
    reference = ServeTwice(&*engine, "Cluster");
  }
  auto engine = serving::ServingEngine::FromMapped(*mapped);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(ServeTwice(&*engine, "Cluster"), reference);
}

// Load() serves manifests only: a raw shard file is refused with
// instructions, and anything else that is not a manifest — a foreign file,
// one shorter than the 4-byte magic, an empty one — is a typed parse
// error, never a misparse or a crash.
TEST_F(ShardedArtifactTest, LoadAcceptsOnlyManifests) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("m.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  auto sharded = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->shard_count(), 2u);

  auto shard = serving::ServingEngine::Load(ShardPath(manifest, 0));
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kInvalidArgument)
      << shard.status().ToString();

  const std::string junk = Path("junk.pvram");
  for (const std::string& bytes :
       {std::string("definitely not a model artifact"), std::string("PVR"),
        std::string("P"), std::string()}) {
    WriteAllBytes(junk, bytes);
    auto engine = serving::ServingEngine::Load(junk);
    ASSERT_FALSE(engine.ok()) << bytes.size();
    EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
        << engine.status().ToString();
  }
  EXPECT_EQ(serving::ServingEngine::Load(Path("missing.pvram")).status().code(),
            StatusCode::kNotFound);
}

// Overwriting a set commits with the manifest rename and then sweeps every
// "<manifest>.shard*" file the new manifest does not name: the previous
// generation's shards (here K=3 -> K=1) and debris of failed saves.
TEST_F(ShardedArtifactTest, OverwriteSweepsStaleShardFiles) {
  const std::string manifest = Path("gen.pvram");
  ASSERT_TRUE(serving::SaveShardedArtifact(BuildFullModel(kSeed), manifest,
                                           {.shards = 3})
                  .ok());
  WriteAllBytes(manifest + ".shard7.0badf00d", "orphan of a failed save");
  WriteAllBytes(manifest + ".shard0.0badf00d.tmp", "torn shard temp");
  ASSERT_TRUE(serving::SaveArtifact(BuildFullModel(kSeed + 1), manifest).ok());

  std::vector<std::string> shard_files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("gen.pvram.shard", 0) == 0) shard_files.push_back(name);
  }
  ASSERT_EQ(shard_files.size(), 1u);
  EXPECT_EQ(Path(shard_files[0]), ShardPath(manifest, 0));
  auto engine = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->model().provenance.seed, kSeed + 1);
}

// PRIVREC_NO_MMAP flips the default map mode without changing a byte of
// the served output (the bit-identity matrix covers the byte part).
TEST_F(ShardedArtifactTest, EnvVarSelectsReadFallback) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("env.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  setenv("PRIVREC_NO_MMAP", "1", 1);
  auto fallback = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE(fallback->mmap_backed());

  unsetenv("PRIVREC_NO_MMAP");
  auto mapped = serving::ServingEngine::Load(manifest);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mmap_backed());
}

// The read-fallback open retries transient failures (EINTR-shaped errors,
// short reads from a cold or networked filesystem) instead of failing the
// swap, and the recovered bytes serve bit-identically to the mmap route.
TEST_F(ShardedArtifactTest, FallbackReadRetriesTransientFaultsBitIdentically) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("retry.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  std::vector<std::vector<RecommendationList>> reference;
  {
    auto mapped = serving::MappedArtifact::Open(manifest, {});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    ASSERT_TRUE(engine.ok());
    reference = ServeTwice(&*engine, "Cluster");
  }

  auto& injector = fault::FaultInjector::Instance();
  obs::Counter& retries =
      obs::GetCounter("privrec.artifact.fallback_read_retries");

  // Transient I/O errors: three failed laps, well inside the 64-retry
  // budget, then the reads go through.
  const int64_t retries_before = retries.value();
  injector.Arm("artifact.fallback_read", {fault::FaultKind::kIoError, 1, 3});
  {
    serving::MapOptions map_options;
    map_options.use_mmap = false;
    auto mapped = serving::MappedArtifact::Open(manifest, map_options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_FALSE((*mapped)->mmap_backed());
    EXPECT_GE(injector.HitCount("artifact.fallback_read"), 3);
    // Counters read 0 in PRIVREC_OBS=OFF builds.
    if (obs::kCompiledIn) {
      EXPECT_GE(retries.value() - retries_before, 3);
    }
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(ServeTwice(&*engine, "Cluster"), reference);
  }
  injector.Reset();

  // Short reads: the loop crawls one byte per lap for a stretch and must
  // still assemble the exact file.
  injector.Arm("artifact.fallback_read",
               {fault::FaultKind::kShortRead, 1, 200});
  {
    serving::MapOptions map_options;
    map_options.use_mmap = false;
    auto mapped = serving::MappedArtifact::Open(manifest, map_options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(ServeTwice(&*engine, "Cluster"), reference);
  }
  injector.Reset();
}

// A filesystem that fails EVERY read must exhaust the bounded budget and
// fail the open closed — never spin forever, never serve a partial buffer.
TEST_F(ShardedArtifactTest, FallbackReadRetryBudgetIsBounded) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("exhaust.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());

  auto& injector = fault::FaultInjector::Instance();
  injector.Arm("artifact.fallback_read",
               {fault::FaultKind::kIoError});  // count defaults to forever
  serving::MapOptions map_options;
  map_options.use_mmap = false;
  auto mapped = serving::MappedArtifact::Open(manifest, map_options);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
  EXPECT_NE(mapped.status().ToString().find("after 64 retries"),
            std::string::npos)
      << mapped.status().ToString();
  injector.Reset();

  // Nothing was damaged: with the fault disarmed the same open succeeds.
  auto recovered = serving::MappedArtifact::Open(manifest, map_options);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// ------------------------------------------------- corruption, fail-closed
//
// Every damage class gets its OWN status code so an operator can tell
// "re-copy the file" (kDataLoss) from "wrong file entirely"
// (kGraphMismatch / kProvenanceMismatch) from "regenerate the shard set"
// (kFailedPrecondition / kNotFound) without reading logs.

class ShardedCorruptionTest : public ShardedArtifactTest {
 protected:
  // Saves a 2-shard artifact and returns the manifest path.
  std::string SaveSharded(const std::string& name, uint64_t seed = kSeed) {
    serving::ArtifactModel model = BuildFullModel(seed);
    const std::string path = Path(name);
    EXPECT_TRUE(
        serving::SaveShardedArtifact(model, path, {.shards = 2}).ok());
    return path;
  }

  static StatusCode OpenCode(const std::string& manifest) {
    auto mapped = serving::MappedArtifact::Open(manifest, {});
    if (mapped.ok()) return StatusCode::kOk;
    return mapped.status().code();
  }

  // Locates section `id`'s payload inside an aligned container and flips
  // one bit of it (payloads are CRC-covered; padding is not, so flipping
  // blind offsets would make a flaky test).
  static void FlipPayloadBit(const std::string& path, uint32_t magic,
                             uint32_t section_id) {
    std::string bytes = ReadAllBytes(path);
    auto view = serving::ParseAlignedContainer(
        bytes.data(), bytes.size(), magic, serving::kShardFormatVersion,
        "test container");
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    for (const serving::AlignedSectionView& s : view->sections) {
      if (s.id != section_id) continue;
      ASSERT_GT(s.size, 0u);
      bytes[s.offset + s.size / 2] ^= 0x20;
      WriteAllBytes(path, bytes);
      return;
    }
    FAIL() << "section " << section_id << " not found in " << path;
  }
};

TEST_F(ShardedCorruptionTest, TruncatedManifestIsParseError) {
  const std::string manifest = SaveSharded("t.pvram");
  const std::string bytes = ReadAllBytes(manifest);
  for (size_t keep : {bytes.size() / 2, size_t{40}, size_t{3}}) {
    WriteAllBytes(manifest, bytes.substr(0, keep));
    EXPECT_EQ(OpenCode(manifest), StatusCode::kParseError) << keep;
  }
}

// The version field is the u32 after the magic. A manifest or shard from
// a future format is refused as version skew, not parsed as damage.
TEST_F(ShardedCorruptionTest, FutureFormatVersionIsVersionMismatch) {
  const std::string manifest = SaveSharded("v.pvram");
  const std::string shard1 = ShardPath(manifest, 1);
  for (const std::string& file : {manifest, shard1}) {
    const std::string clean = ReadAllBytes(file);
    std::string bumped = clean;
    bumped[4] = static_cast<char>(bumped[4] + 1);
    WriteAllBytes(file, bumped);
    auto engine = serving::ServingEngine::Load(manifest);
    ASSERT_FALSE(engine.ok()) << file;
    EXPECT_EQ(engine.status().code(), StatusCode::kVersionMismatch)
        << engine.status().ToString();
    WriteAllBytes(file, clean);
  }
  EXPECT_TRUE(serving::ServingEngine::Load(manifest).ok());
}

// A manifest whose section table lost a required section (its id
// rewritten to one the reader does not know) is a parse error naming it.
TEST_F(ShardedCorruptionTest, MissingRequiredManifestSectionIsParseError) {
  const std::string manifest = SaveSharded("nosec.pvram");
  std::string bytes = ReadAllBytes(manifest);
  auto view = serving::ParseAlignedContainer(
      bytes.data(), bytes.size(), serving::kManifestMagic,
      serving::kShardFormatVersion, "test manifest");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (size_t k = 0; k < view->sections.size(); ++k) {
    if (view->sections[k].id !=
        static_cast<uint32_t>(serving::ManifestSectionId::kClusterOf)) {
      continue;
    }
    const uint32_t unknown = 99;
    std::memcpy(&bytes[16 + 32 * k], &unknown, sizeof(unknown));
  }
  WriteAllBytes(manifest, bytes);
  auto engine = serving::ServingEngine::Load(manifest);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError);
  EXPECT_NE(engine.status().message().find("cluster_of"), std::string::npos)
      << engine.status().ToString();
}

TEST_F(ShardedCorruptionTest, BitFlippedManifestPayloadIsDataLoss) {
  const std::string manifest = SaveSharded("mflip.pvram");
  FlipPayloadBit(manifest, serving::kManifestMagic,
                 static_cast<uint32_t>(
                     serving::ManifestSectionId::kClusterOf));
  EXPECT_EQ(OpenCode(manifest), StatusCode::kDataLoss);
}

TEST_F(ShardedCorruptionTest, BitFlippedShardPayloadIsDataLoss) {
  // Damage each payload class separately: the noisy rows, the shard
  // header blob, and a byte of the frame's section table.
  for (auto section : {serving::ShardSectionId::kNoisyRows,
                       serving::ShardSectionId::kShardHeader}) {
    const std::string manifest =
        SaveSharded("sflip" + std::to_string(static_cast<int>(section)) +
                    ".pvram");
    FlipPayloadBit(ShardPath(manifest, 1), serving::kShardMagic,
                   static_cast<uint32_t>(section));
    EXPECT_EQ(OpenCode(manifest), StatusCode::kDataLoss)
        << "section " << static_cast<int>(section);
  }
  const std::string manifest = SaveSharded("sframe.pvram");
  const std::string shard0 = ShardPath(manifest, 0);
  std::string bytes = ReadAllBytes(shard0);
  bytes[16 + 24] ^= 0x01;  // first table entry's crc32 field
  WriteAllBytes(shard0, bytes);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kDataLoss);
}

TEST_F(ShardedCorruptionTest, MissingShardFileIsNotFound) {
  const std::string manifest = SaveSharded("gone.pvram");
  fs::remove(ShardPath(manifest, 1));
  EXPECT_EQ(OpenCode(manifest), StatusCode::kNotFound);
}

TEST_F(ShardedCorruptionTest, ResizedShardIsFailedPrecondition) {
  // Extra bytes (a concatenation accident, a foreign shard of another
  // size): the manifest records each shard's exact byte size.
  const std::string manifest = SaveSharded("fat.pvram");
  const std::string shard0 = ShardPath(manifest, 0);
  std::string bytes = ReadAllBytes(shard0);
  bytes.append(64, '\0');
  WriteAllBytes(shard0, bytes);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kFailedPrecondition);
}

TEST_F(ShardedCorruptionTest, ForeignDatasetShardIsGraphMismatch) {
  // Same build, same geometry, different dataset fingerprint: the mixed-in
  // shard must be named a graph mismatch, not generic corruption. The
  // foreign twin is byte-compatible (only the fingerprint differs), so
  // only the identity gate can catch it.
  serving::ArtifactModel model = BuildFullModel();
  serving::ArtifactModel foreign = model;
  foreign.meta.graph_hash ^= 1;

  const std::string manifest = Path("a.pvram");
  const std::string other = Path("b.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 2}).ok());
  ASSERT_TRUE(
      serving::SaveShardedArtifact(foreign, other, {.shards = 2}).ok());
  fs::copy_file(ShardPath(other, 0), ShardPath(manifest, 0),
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kGraphMismatch);
}

TEST_F(ShardedCorruptionTest, CrossBuildShardIsProvenanceMismatch) {
  // Same dataset, different DP seed: identical sizes, different noise.
  // Serving mixed noise would silently break the ε accounting, so the
  // artifact token must reject the splice with its own code.
  const std::string manifest = SaveSharded("build_a.pvram", kSeed);
  const std::string other = SaveSharded("build_b.pvram", kSeed + 1);
  fs::copy_file(ShardPath(other, 1), ShardPath(manifest, 1),
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kProvenanceMismatch);
}

TEST_F(ShardedCorruptionTest, ShardIndexMixupFailsClosed) {
  // Shard 1 copied over shard 0 of the SAME build: caught by the size
  // gate or the header-vs-table gate, both kFailedPrecondition.
  const std::string manifest = SaveSharded("swap.pvram");
  fs::copy_file(ShardPath(manifest, 1), ShardPath(manifest, 0),
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(OpenCode(manifest), StatusCode::kFailedPrecondition);
}

TEST_F(ShardedCorruptionTest, ArmedFaultPointsFailClosed) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  const std::string manifest = SaveSharded("faults.pvram");
  auto& injector = fault::FaultInjector::Instance();

  injector.Arm("artifact.open", {fault::FaultKind::kIoError, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kIoError);
  injector.Reset();

  injector.Arm("artifact.read", {fault::FaultKind::kIoError, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kIoError);
  injector.Reset();

  // A short read truncates the manifest view mid-frame.
  injector.Arm("artifact.read", {fault::FaultKind::kShortRead, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kParseError);
  injector.Reset();

  injector.Arm("shard.read", {fault::FaultKind::kIoError, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kIoError);
  injector.Reset();

  // Latency stalls the read but nothing is damaged: the open succeeds.
  injector.Arm("artifact.read", {fault::FaultKind::kLatency, 1, 1});
  EXPECT_EQ(OpenCode(manifest), StatusCode::kOk);
  injector.Reset();
}

// ---------------------------------------- untrusted-header overflow class
//
// Regression for the bug class fixed alongside this layout: a count read
// from an untrusted header, multiplied in size_t, can wrap back to the
// byte size the file actually has — and size a vector smaller than the
// loop that fills it. Validation must divide, never multiply.

TEST_F(ShardedArtifactTest, ValidateModelRejectsHugeNoisyGeometry) {
  serving::ArtifactModel model = BuildFullModel();
  // An item count near 2^62 makes nc * ni wrap in size_t; for cluster
  // counts divisible by 4 the product lands exactly on values.size() and
  // a product-form check accepts a table 2^55x too small for its header.
  model.meta.num_items = (int64_t{1} << 62) + 80;

  auto engine = serving::ServingEngine::FromModel(std::move(model));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
      << engine.status().ToString();
}

TEST_F(ShardedArtifactTest, ValidateModelRejectsWrappingLowRankRank) {
  serving::ArtifactModel model = BuildFullModel();
  ASSERT_TRUE(model.has_lowrank);
  const size_t nu = static_cast<size_t>(model.meta.num_users);  // 120
  const size_t b = model.lowrank.b.size();                      // nu * 16
  ASSERT_EQ(b, nu * 16);
  // nu * rank == 15 * 2^64 + b == b (mod 2^64): the product check wraps
  // clean, the division check does not.
  model.lowrank.rank = (int64_t{1} << 61) + 16;
  ASSERT_EQ(nu * static_cast<size_t>(model.lowrank.rank), b);

  auto engine = serving::ServingEngine::FromModel(std::move(model));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
      << engine.status().ToString();
}

TEST_F(ShardedArtifactTest, OversizedSectionTableEntryIsParseError) {
  // A table entry claiming more bytes than the file has must be rejected
  // at parse time — including sizes chosen so offset + size wraps.
  std::string bytes = serving::EncodeAlignedContainer(
      serving::kShardMagic, serving::kShardFormatVersion,
      {{/*id=*/2, std::string(64, 'x')}});
  ASSERT_GT(bytes.size(), 40u);
  for (uint64_t huge :
       {uint64_t{1} << 60, UINT64_MAX - 32, UINT64_MAX}) {
    std::string tampered = bytes;
    std::memcpy(&tampered[16 + 16], &huge, sizeof(huge));  // entry 0's size
    auto view = serving::ParseAlignedContainer(
        tampered.data(), tampered.size(), serving::kShardMagic,
        serving::kShardFormatVersion, "tampered");
    ASSERT_FALSE(view.ok()) << huge;
    EXPECT_EQ(view.status().code(), StatusCode::kParseError) << huge;
  }
}

// ------------------------------------------------- shard telemetry

// A sharded release served through ServeRuntime reports its layout: the
// wide event carries the pinned epoch's shard count, and statusz renders
// the per-shard user map.
TEST_F(ShardedArtifactTest, ShardedTelemetryReportsShardLayout) {
  serving::ArtifactModel model = BuildFullModel();
  const std::string manifest = Path("route.pvram");
  ASSERT_TRUE(
      serving::SaveShardedArtifact(model, manifest, {.shards = 3}).ok());

  serve::ServeTelemetryOptions tel_options;
  tel_options.sample_every = 1;
  serve::ServeTelemetry telemetry(tel_options);
  serve::ServeRuntimeOptions options;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = kEps;
  options.telemetry = &telemetry;
  serve::ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(manifest).ok());

  serve::ServeRequest request;
  request.users = users_;
  request.top_n = kTopN;
  serve::ServeResponse response = runtime.Handle(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  request.users = {users_[0]};
  ASSERT_TRUE(runtime.Handle(request).status.ok());

  std::vector<obs::RequestTelemetry> events = telemetry.sampled_events();
  ASSERT_EQ(events.size(), 2u);
  for (const obs::RequestTelemetry& event : events) {
    EXPECT_EQ(event.outcome, obs::RequestOutcome::kOk);
    EXPECT_EQ(event.shard_count, 3);
    EXPECT_GE(event.reconstruct_ms, 0.0);
  }
  EXPECT_NE(telemetry.EventsJsonl().find("\"shard_count\": 3"),
            std::string::npos);

  serve::RuntimeIntrospection status = runtime.Introspect();
  EXPECT_EQ(status.shard_count, 3);
  ASSERT_EQ(status.shard_users.size(), 3u);
  int64_t owned = 0;
  for (int64_t n : status.shard_users) owned += n;
  EXPECT_EQ(owned, status.num_users);
  ASSERT_TRUE(status.has_telemetry);
  EXPECT_EQ(status.telemetry_recorded, 2);
  EXPECT_NE(serve::StatuszText(status).find("3 shard(s)"),
            std::string::npos);
  EXPECT_NE(serve::StatuszJson(status).find("\"shard_count\": 3"),
            std::string::npos);
}

}  // namespace
}  // namespace privrec
