// Tests for the two-phase build/serve split: save/load round-trip
// bit-identity of the served mechanism at every thread count,
// byte-determinism of the saved artifact, the compatibility gates (graph /
// ε-provenance / retired mechanisms, each with its own status code),
// truncation and fault robustness, and the privacy isolation of the
// serving layer. The on-disk
// layout's own corruption and version checks live in
// sharded_artifact_test.

// The isolation guarantee, checked at the include level: the serving
// headers are included FIRST, and must not (transitively) pull in the
// private graph containers or the DP noise mechanisms — serving is
// post-processing of a release whose noise is frozen. The CMake side of
// the same guarantee forbids privrec_serving from linking privrec_graph
// or privrec_dp.
#include "artifact/model.h"
#include "artifact/model_io.h"
#include "artifact/reconstruct.h"
#include "artifact/serving.h"

#if defined(PRIVREC_GRAPH_PREFERENCE_GRAPH_H_) || \
    defined(PRIVREC_GRAPH_SOCIAL_GRAPH_H_)
#error "serving headers must not include the private graph containers"
#endif
#if defined(PRIVREC_DP_MECHANISMS_H_)
#error "serving headers must not include the DP noise mechanisms"
#endif

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/builder.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "community/louvain.h"
#include "core/dynamic_recommender.h"
#include "core/recommender_factory.h"
#include "data/synthetic.h"
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

class ArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("privrec_artifact_" +
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
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  artifact::ModelArtifactBuilder MakeBuilder() {
    artifact::ModelArtifactBuilder builder(&dataset_.social,
                                           &dataset_.preferences);
    builder.SetPartition(&louvain_.partition);
    builder.SetWorkload(&workload_);
    return builder;
  }

  // Build (advancing the builder's publisher invocation), save, load, and
  // serve one batch — the full offline→online round trip.
  std::vector<RecommendationList> BuildSaveLoadServe(
      artifact::ModelArtifactBuilder& builder,
      const artifact::BuildOptions& build_options,
      const serving::ServeSpec& spec, const std::string& name) {
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = Path(name);
    Status saved = serving::SaveArtifact(*model, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    auto engine = serving::ServingEngine::Load(path);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    auto server = serving::MakeServeRecommender(&*engine, spec);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server->Recommend(users_, kTopN).lists;
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

// The paper's mechanism: the A_w release is frozen at build time, so the
// k-th Build+serve must reproduce the k-th Recommend of a fresh in-memory
// recommender — at every thread count, through an actual file.
TEST_F(ArtifactTest, ClusterRoundTripBitIdentityAcrossThreadCounts) {
  // Reference: two successive in-memory releases at one thread.
  std::vector<std::vector<RecommendationList>> reference;
  {
    ScopedThreadCount baseline(1);
    core::ClusterRecommender rec(context_, louvain_.partition,
                                 {.epsilon = kEps, .seed = kSeed});
    reference.push_back(rec.Recommend(users_, kTopN));
    reference.push_back(rec.Recommend(users_, kTopN));
  }

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  for (int64_t threads : {int64_t{1}, int64_t{2}, HardwareThreads()}) {
    ScopedThreadCount scoped(threads);
    // In-memory stays thread-invariant...
    core::ClusterRecommender rec(context_, louvain_.partition,
                                 {.epsilon = kEps, .seed = kSeed});
    EXPECT_EQ(rec.Recommend(users_, kTopN), reference[0]) << threads;
    EXPECT_EQ(rec.Recommend(users_, kTopN), reference[1]) << threads;
    // ...and so does the build→save→load→serve route, invocation by
    // invocation.
    artifact::ModelArtifactBuilder builder = MakeBuilder();
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = kSeed;
    EXPECT_EQ(BuildSaveLoadServe(builder, build_options, spec, "c0.pvram"),
              reference[0])
        << threads;
    EXPECT_EQ(BuildSaveLoadServe(builder, build_options, spec, "c1.pvram"),
              reference[1])
        << threads;
  }
}

// Two independent builders with identical options must emit identical
// bytes, even at different thread counts — artifacts are reproducible
// build products (no timestamps, deterministic noise). The manifest names
// its shard by content, so equal manifests also mean equal shard frames;
// the file name must not vary, hence one subdirectory per thread count.
TEST_F(ArtifactTest, SavedBytesAreDeterministicAcrossThreadCounts) {
  artifact::BuildOptions build_options;
  build_options.epsilon = kEps;
  build_options.seed = kSeed;

  std::string first;
  for (int64_t threads : {int64_t{1}, int64_t{2}, HardwareThreads()}) {
    ScopedThreadCount scoped(threads);
    artifact::ModelArtifactBuilder builder = MakeBuilder();
    auto model = builder.Build(build_options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const fs::path sub = dir_ / ("t" + std::to_string(threads));
    fs::create_directories(sub);
    const std::string path = (sub / "det.pvram").string();
    ASSERT_TRUE(serving::SaveArtifact(*model, path).ok());
    std::string bytes = ReadAllBytes(path);
    ASSERT_FALSE(bytes.empty());
    if (first.empty()) {
      first = bytes;
    } else {
      EXPECT_EQ(bytes, first) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------------------------ gates

TEST_F(ArtifactTest, GraphGateRefusesMismatchedFingerprint) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());
  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  spec.expected_graph_hash = builder.graph_hash() ^ 1;
  auto server = serving::MakeServeRecommender(&*engine, spec);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kGraphMismatch)
      << server.status().ToString();

  spec.expected_graph_hash = builder.graph_hash();
  EXPECT_TRUE(serving::MakeServeRecommender(&*engine, spec).ok());
}

TEST_F(ArtifactTest, EpsilonGateRefusesForeignProvenance) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model).provenance.epsilon, kEps);
  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps + 0.1;  // not the ε this release paid
  auto server = serving::MakeServeRecommender(&*engine, spec);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kProvenanceMismatch)
      << server.status().ToString();
}

// The serve path serves one mechanism. The baselines read the private
// preference graph, so they are in-memory evaluators only: naming one at
// the serve path, or asking the builder for the preference sections they
// needed, is a bad argument — for an in-memory model and a saved-then-
// mapped artifact alike.
TEST_F(ArtifactTest, RetiredMechanismsAreInvalidArguments) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  artifact::BuildOptions build_options;
  build_options.epsilon = kEps;
  build_options.seed = kSeed;
  build_options.include_reference_sections = true;
  auto refused = builder.Build(build_options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();

  build_options.include_reference_sections = false;
  auto model = builder.Build(build_options);
  ASSERT_TRUE(model.ok());
  const std::string path = Path("prod.pvram");
  ASSERT_TRUE(serving::SaveArtifact(*model, path).ok());
  auto in_memory = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(in_memory.ok());
  auto loaded = serving::ServingEngine::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const serving::ServingEngine* engine : {&*in_memory, &*loaded}) {
    for (const char* retired :
         {"Exact", "NOU", "NOE", "GS", "LRM", "Oracle"}) {
      serving::ServeSpec spec;
      spec.mechanism = retired;
      spec.epsilon = kEps;
      auto server = serving::MakeServeRecommender(engine, spec);
      ASSERT_FALSE(server.ok()) << retired;
      EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument)
          << retired;
    }
    serving::ServeSpec cluster;
    cluster.epsilon = kEps;
    EXPECT_TRUE(serving::MakeServeRecommender(engine, cluster).ok());
  }
}

// ------------------------------------------------------------- corruption

TEST_F(ArtifactTest, TruncatedFileIsAParseErrorNotACrash) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());
  const std::string path = Path("t.pvram");
  ASSERT_TRUE(serving::SaveArtifact(*model, path).ok());
  const std::string bytes = ReadAllBytes(path);

  // Every truncation point must fail cleanly with a parse error naming the
  // damaged part, never crash or load.
  for (double frac : {0.02, 0.3, 0.6, 0.95}) {
    const std::string cut =
        bytes.substr(0, static_cast<size_t>(bytes.size() * frac));
    WriteAllBytes(path, cut);
    auto engine = serving::ServingEngine::Load(path);
    ASSERT_FALSE(engine.ok()) << "frac=" << frac;
    EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
        << engine.status().ToString();
    EXPECT_NE(engine.status().message().find("artifact"), std::string::npos)
        << engine.status().ToString();
  }
}

TEST_F(ArtifactTest, InjectedIoFaultsSurfaceAsStatusErrors) {
  if (!fault::kCompiledIn) GTEST_SKIP() << "fault probes compiled out";
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());
  const std::string path = Path("f.pvram");

  {
    fault::ScopedFaultInjection scope(
        "artifact.open", fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    EXPECT_EQ(serving::SaveArtifact(*model, path).code(),
              StatusCode::kIoError);
  }
  {
    fault::ScopedFaultInjection scope(
        "artifact.write",
        fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    EXPECT_EQ(serving::SaveArtifact(*model, path).code(),
              StatusCode::kIoError);
  }
  ASSERT_TRUE(serving::SaveArtifact(*model, path).ok());
  {
    fault::ScopedFaultInjection scope(
        "artifact.open", fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    EXPECT_EQ(serving::ServingEngine::Load(path).status().code(),
              StatusCode::kIoError);
  }
  {
    fault::ScopedFaultInjection scope(
        "artifact.read", fault::FaultSpec{.kind = fault::FaultKind::kIoError});
    EXPECT_EQ(serving::ServingEngine::Load(path).status().code(),
              StatusCode::kIoError);
  }
  {
    // A short read behaves exactly like a truncated file on disk.
    fault::ScopedFaultInjection scope(
        "artifact.read",
        fault::FaultSpec{.kind = fault::FaultKind::kShortRead});
    auto engine = serving::ServingEngine::Load(path);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kParseError)
        << engine.status().ToString();
  }
  EXPECT_TRUE(serving::ServingEngine::Load(path).ok());
}

// ---------------------------------------------------------------- factory

TEST_F(ArtifactTest, FactoryServesFromAnEngineBehindTheSameInterface) {
  artifact::ModelArtifactBuilder builder = MakeBuilder();
  auto model = builder.Build({.epsilon = kEps, .seed = kSeed});
  ASSERT_TRUE(model.ok());

  std::vector<RecommendationList> reference;
  {
    core::ClusterRecommender rec(context_, louvain_.partition,
                                 {.epsilon = kEps, .seed = kSeed});
    reference = rec.Recommend(users_, kTopN);
  }

  auto engine = serving::ServingEngine::FromModel(std::move(*model));
  ASSERT_TRUE(engine.ok());
  auto shared =
      std::make_shared<const serving::ServingEngine>(std::move(*engine));

  core::RecommenderSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  spec.seed = kSeed;
  spec.expected_graph_hash = builder.graph_hash();

  auto rec = core::MakeArtifactRecommender(shared, spec);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ((*rec)->Name(), "Cluster");
  EXPECT_EQ((*rec)->Recommend(users_, kTopN), reference);
}

// ---------------------------------------------------------------- dynamic

TEST_F(ArtifactTest, DynamicSessionArtifactRouteMatchesInMemory) {
  core::DynamicRecommenderOptions options;
  options.total_epsilon = 2.0;
  options.planned_snapshots = 4;
  options.seed = 11;
  core::DynamicRecommenderSession in_memory(options);
  options.artifact_dir = Path("snapshots");
  core::DynamicRecommenderSession two_phase(options);

  for (int64_t t = 0; t < 2; ++t) {
    auto a = in_memory.ProcessSnapshot(context_, users_, kTopN);
    auto b = two_phase.ProcessSnapshot(context_, users_, kTopN);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->lists, b->lists) << "snapshot " << t;
    EXPECT_EQ(a->epsilon_spent, b->epsilon_spent);
    // The snapshot's audit artifact landed on disk, and the release names
    // it.
    EXPECT_EQ(b->artifact_path,
              Path("snapshots/snapshot_" + std::to_string(t) + ".pvram"));
    EXPECT_TRUE(serving::ServingEngine::Load(b->artifact_path).ok());
    EXPECT_TRUE(a->artifact_path.empty());
  }
}

}  // namespace
}  // namespace privrec
