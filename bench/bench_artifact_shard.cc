// Table-1-scale artifact bench: zero-copy serving of the sharded
// artifact, the measurement behind BENCH_artifact.json.
//
// The driver generates the synthetic Flixster substitute at the paper's
// REAL Table-1 scale (137,372 users, ~1.27M social edges, ~7.5M
// preference edges), builds one full artifact, saves it as a K-shard set
// and times both load routes:
//
//   .pvram manifest + shards  ->  MappedArtifact::Open (mmap) + FromMapped
//   .pvram manifest + shards  ->  MappedArtifact::Open (read fallback)
//
// plus the RSS delta of each route and of a SECOND engine over the same
// files — the mmap route shares the page cache, the read route pays the
// full copy again. A probe batch is served from every engine and compared
// byte-for-byte against the in-memory engine over the built model
// (ServingEngine::FromModel).
//
//   ./bench_artifact_shard [--users=137372] [--items=48756] [--shards=6]
//                          [--epsilon=0.5] [--top_n=10]
//                          [--scratch-dir=artifact-shard-scratch]
//                          [--report=BENCH_artifact.json]
//
// Exit status: 0 when every probe is bit-identical; 2 otherwise; 1 on
// setup errors.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/builder.h"
#include "artifact/mapped.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/timer.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "obs/export.h"
#include "similarity/common_neighbors.h"

namespace {

namespace fs = std::filesystem;
using namespace privrec;

// VmRSS in kB from /proc/self/status; 0 when unavailable (non-Linux).
int64_t CurrentRssKb() {
  std::ifstream status("/proc/self/status");
  std::string token;
  while (status >> token) {
    if (token == "VmRSS:") {
      int64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

struct LoadSample {
  double total_ms = 0;
  int64_t rss_delta_kb = 0;
  int64_t second_rss_delta_kb = 0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  ObsSession obs_session = ApplyDriverFlags(flags);
  data::SyntheticFlixsterOptions data_options;  // Table-1 scale defaults
  const int64_t users = flags.GetInt("users", data_options.num_users);
  const int64_t items = flags.GetInt("items", data_options.num_items);
  const int64_t shards = flags.GetInt("shards", 6);
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const int64_t top_n = flags.GetInt("top_n", 10);
  const std::string scratch =
      flags.GetString("scratch-dir", "artifact-shard-scratch");
  const std::string report =
      flags.GetString("report", "BENCH_artifact.json");
  if (!flags.Validate()) return 1;

  fs::remove_all(scratch);
  fs::create_directories(scratch);

  // ---- Offline: dataset, workload, clustering, one full build.
  WallTimer timer;
  data_options.num_users = users;
  data_options.num_items = items;
  data::Dataset dataset = data::MakeSyntheticFlixster(data_options);
  const double dataset_ms = timer.ElapsedMillis();
  std::fprintf(stderr,
               "dataset: %lld users, %lld social edges, %lld preference "
               "edges (%.0f ms)\n",
               static_cast<long long>(dataset.social.num_nodes()),
               static_cast<long long>(dataset.social.num_edges()),
               static_cast<long long>(dataset.preferences.num_edges()),
               dataset_ms);

  timer.Reset();
  auto louvain =
      community::RunLouvain(dataset.social, {.restarts = 1, .seed = 3});
  const double louvain_ms = timer.ElapsedMillis();

  // The similarity workload (most of the artifact's bytes: ~1,700 16-byte
  // entries per user at this scale) lives only as long as the build, so
  // the load routes below are measured without it resident.
  double workload_ms = 0.0;
  double build_ms = 0.0;
  serving::ArtifactModel model;
  {
    timer.Reset();
    auto workload = similarity::SimilarityWorkload::Compute(
        dataset.social, similarity::CommonNeighbors());
    workload_ms = timer.ElapsedMillis();
    std::fprintf(stderr,
                 "workload %.0f ms, louvain %.0f ms (%lld clusters)\n",
                 workload_ms, louvain_ms,
                 static_cast<long long>(louvain.partition.num_clusters()));

    timer.Reset();
    artifact::ModelArtifactBuilder builder(&dataset.social,
                                           &dataset.preferences);
    builder.SetPartition(&louvain.partition);
    builder.SetWorkload(&workload);
    artifact::BuildOptions build_options;
    build_options.epsilon = epsilon;
    build_options.seed = 11;
    auto built = builder.Build(build_options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    model = std::move(*built);
    build_ms = timer.ElapsedMillis();
  }

  const std::string manifest =
      (fs::path(scratch) / "table1.pvram").string();
  timer.Reset();
  Status saved =
      serving::SaveShardedArtifact(model, manifest, {.shards = shards});
  const double save_ms = timer.ElapsedMillis();
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = epsilon;
  std::vector<graph::NodeId> probe_users;
  for (graph::NodeId u = 0; u < users && probe_users.size() < 64; u += 97) {
    probe_users.push_back(u);
  }

  std::vector<core::RecommendationList> reference;
  bool bit_identical = true;
  auto probe = [&](serving::ServingEngine* engine) {
    auto server = serving::MakeServeRecommender(engine, spec);
    if (!server.ok()) {
      std::fprintf(stderr, "probe rejected: %s\n",
                   server.status().ToString().c_str());
      bit_identical = false;
      return;
    }
    auto lists = server->Recommend(probe_users, top_n).lists;
    if (reference.empty()) {
      reference = std::move(lists);
    } else if (lists != reference) {
      bit_identical = false;
    }
  };
  {
    // The reference lists, from the built model with no I/O; the engine
    // (and the model it owns) is dropped before the RSS baselines.
    auto engine = serving::ServingEngine::FromModel(std::move(model));
    if (!engine.ok()) {
      std::fprintf(stderr, "in-memory engine failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    probe(&*engine);
  }

  // ---- Online: both load routes, timed with the files in page cache
  // after the save — the steady state a reloading server lives in.
  uint64_t artifact_bytes = 0;
  auto mapped_route = [&](bool use_mmap, LoadSample* sample) -> int {
    const int64_t rss0 = CurrentRssKb();
    timer.Reset();
    serving::MapOptions map_options;
    map_options.use_mmap = use_mmap;
    auto mapped = serving::MappedArtifact::Open(manifest, map_options);
    const double open_ms = timer.ElapsedMillis();
    if (!mapped.ok()) {
      std::fprintf(stderr, "mapped open failed: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    artifact_bytes = (*mapped)->total_bytes();
    auto engine = serving::ServingEngine::FromMapped(*mapped);
    sample->total_ms = timer.ElapsedMillis();
    std::fprintf(stderr, "  mapped(use_mmap=%d): open %.1f ms, engine %.1f ms\n",
                 use_mmap ? 1 : 0, open_ms, sample->total_ms - open_ms);
    sample->rss_delta_kb = CurrentRssKb() - rss0;
    if (!engine.ok()) {
      std::fprintf(stderr, "FromMapped failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    probe(&*engine);
    const int64_t rss1 = CurrentRssKb();
    auto again = serving::MappedArtifact::Open(manifest, map_options);
    if (!again.ok()) return 1;
    auto second = serving::ServingEngine::FromMapped(*again);
    sample->second_rss_delta_kb = CurrentRssKb() - rss1;
    if (!second.ok()) return 1;
    return 0;
  };
  LoadSample mmap_sample;
  LoadSample read_sample;
  if (mapped_route(true, &mmap_sample) != 0) return 1;
  if (mapped_route(false, &read_sample) != 0) return 1;

  const bool pass = bit_identical;

  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\n"
      "  \"context\": {\"bench\": \"bench_artifact_shard\", "
      "\"scale\": \"table1-flixster\"},\n"
      "  \"spec\": {\"users\": %lld, \"items\": %lld, \"shards\": %lld, "
      "\"epsilon\": %.3f, \"social_edges\": %lld, \"pref_edges\": %lld, "
      "\"clusters\": %lld},\n"
      "  \"offline_ms\": {\"dataset\": %.1f, \"workload\": %.1f, "
      "\"louvain\": %.1f, \"build\": %.1f, \"save\": %.1f},\n"
      "  \"artifact_bytes\": %llu,\n"
      "  \"load\": {\n"
      "    \"mapped_mmap\": {\"total_ms\": %.2f, \"rss_delta_kb\": %lld, "
      "\"second_engine_rss_delta_kb\": %lld},\n"
      "    \"mapped_read\": {\"total_ms\": %.2f, \"rss_delta_kb\": %lld, "
      "\"second_engine_rss_delta_kb\": %lld}\n"
      "  },\n"
      "  \"results\": {\"bit_identical_probes\": %s, \"pass\": %s}\n"
      "}\n",
      static_cast<long long>(users), static_cast<long long>(items),
      static_cast<long long>(shards), epsilon,
      static_cast<long long>(dataset.social.num_edges()),
      static_cast<long long>(dataset.preferences.num_edges()),
      static_cast<long long>(louvain.partition.num_clusters()), dataset_ms,
      workload_ms, louvain_ms, build_ms, save_ms,
      static_cast<unsigned long long>(artifact_bytes), mmap_sample.total_ms,
      static_cast<long long>(mmap_sample.rss_delta_kb),
      static_cast<long long>(mmap_sample.second_rss_delta_kb),
      read_sample.total_ms,
      static_cast<long long>(read_sample.rss_delta_kb),
      static_cast<long long>(read_sample.second_rss_delta_kb),
      bit_identical ? "true" : "false", pass ? "true" : "false");

  if (!report.empty()) {
    std::string error;
    if (!obs::WriteTextFile(report, buffer, &error)) {
      std::fprintf(stderr, "report write failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "bench_artifact_shard: mmap %.1f ms, read %.1f ms, "
               "bit_identical=%d -> %s\n",
               mmap_sample.total_ms, read_sample.total_ms,
               bit_identical ? 1 : 0, pass ? "PASS" : "FAIL");
  fs::remove_all(scratch);
  return pass ? 0 : 2;
}
