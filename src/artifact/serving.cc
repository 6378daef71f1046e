#include "artifact/serving.h"

#include <fstream>
#include <utility>

#include "artifact/shard_layout.h"
#include "common/crc32.h"
#include "obs/trace.h"

namespace privrec::serving {

namespace {

// ---- Engine validation ----

Status Invalid(const SectionId id, const std::string& what) {
  return Status::ParseError("artifact section '" +
                            std::string(SectionName(id)) + "' invalid: " +
                            what);
}

Status ValidateModel(const ArtifactModel& m) {
  const int64_t num_users = m.meta.num_users;
  const int64_t num_items = m.meta.num_items;
  if (num_users < 0 || num_items < 0) {
    return Invalid(SectionId::kGraphMeta, "negative dimensions");
  }
  const size_t nu = static_cast<size_t>(num_users);

  if (m.partition.cluster_of.size() != nu) {
    return Invalid(SectionId::kPartition, "cluster_of size != num_users");
  }
  const int64_t num_clusters =
      static_cast<int64_t>(m.partition.sizes.size());
  for (int64_t c : m.partition.cluster_of) {
    if (c < 0 || c >= num_clusters) {
      return Invalid(SectionId::kPartition, "cluster id out of range");
    }
  }

  const auto& w = m.workload;
  if (w.offsets.size() != nu + 1 || w.offsets.front() != 0 ||
      w.offsets.back() != w.entries.size()) {
    return Invalid(SectionId::kWorkload, "offsets do not index the entries");
  }
  for (size_t k = 0; k + 1 < w.offsets.size(); ++k) {
    if (w.offsets[k] > w.offsets[k + 1]) {
      return Invalid(SectionId::kWorkload, "offsets not monotone");
    }
  }
  for (const WorkloadEntry& e : w.entries) {
    if (e.user < 0 || e.user >= num_users) {
      return Invalid(SectionId::kWorkload, "entry user out of range");
    }
  }

  if (m.noisy.num_clusters != num_clusters) {
    return Invalid(SectionId::kNoisyTable,
                   "cluster count disagrees with the partition");
  }
  // Checked by division, not by comparing against nc * ni: the counts come
  // from untrusted section headers, and a product in size_t can wrap back
  // to a plausible value (e.g. items = 2^62, clusters = 4) — the classic
  // path to sizing a vector smaller than the loop that fills it.
  const size_t ni = static_cast<size_t>(num_items);
  const bool noisy_sized =
      ni == 0 ? m.noisy.values.empty()
              : m.noisy.values.size() % ni == 0 &&
                    m.noisy.values.size() / ni ==
                        static_cast<size_t>(num_clusters);
  if (!noisy_sized) {
    return Invalid(SectionId::kNoisyTable,
                   "value table is not num_clusters x num_items");
  }
  if (m.noisy.sanitized.size() != static_cast<size_t>(num_clusters)) {
    return Invalid(SectionId::kNoisyTable, "sanitized flags size mismatch");
  }

  if (m.has_noisy_f32) {
    if (m.noisy_f32.values.size() != m.noisy.values.size()) {
      return Invalid(SectionId::kNoisyTableF32,
                     "f32 table size disagrees with the f64 table");
    }
    // The mirror must bind to THIS release: a stale f32 section quantized
    // from an older f64 table would silently change rankings.
    const uint32_t source = Crc32(m.noisy.values.data(),
                                  m.noisy.values.size() * sizeof(double));
    if (m.noisy_f32.source_crc32 != source) {
      return Invalid(SectionId::kNoisyTableF32,
                     "source_crc32 does not match the f64 table it mirrors");
    }
  }

  return Status::Ok();
}

}  // namespace

core::RecommendedBatch ServeRecommender::Recommend(
    const std::vector<graph::NodeId>& users, int64_t top_n) const {
  PRIVREC_SPAN("artifact.reconstruction");
  core::RecommendedBatch batch;
  const NoisyTableSection& noisy = engine_->model().noisy;
  batch.report.empty_clusters = noisy.empty_clusters;
  batch.report.singleton_clusters = noisy.singleton_clusters;
  batch.report.nonfinite_sanitized = noisy.nonfinite_sanitized;
  Result<int64_t> degraded = ReconstructTopN(
      engine_->release_view(),
      [this](graph::NodeId u) { return engine_->WorkloadRow(u); },
      [this]() -> const std::vector<double>& {
        return engine_->global_average();
      },
      users, top_n, &batch.lists, &batch.degradation);
  PRIVREC_CHECK_MSG(degraded.ok(), degraded.status().message().c_str());
  batch.report.users_degraded = *degraded;
  core::RecordServingMetrics(batch);
  return batch;
}

ReleaseView ServingEngine::release_view() const {
  ReleaseView view;
  view.values = mapped_ ? nullptr : model_.noisy.values.data();
  view.rows = cluster_rows_.data();
  if (!cluster_rows_f32_.empty()) {
    view.values_f32 =
        mapped_ ? nullptr : model_.noisy_f32.values.data();
    view.rows_f32 = cluster_rows_f32_.data();
  }
  view.sanitized = sanitized_;
  view.cluster_of = cluster_of_;
  view.cluster_sizes = cluster_sizes_;
  view.num_clusters = num_clusters_;
  view.num_items = model_.meta.num_items;
  view.num_users = model_.meta.num_users;
  return view;
}

void ServingEngine::BuildOwnedViews() {
  const size_t nu = static_cast<size_t>(model_.meta.num_users);
  const size_t ni = static_cast<size_t>(model_.meta.num_items);
  num_clusters_ = model_.noisy.num_clusters;
  const size_t nc = static_cast<size_t>(num_clusters_);

  cluster_of_ = model_.partition.cluster_of.data();
  cluster_sizes_ = model_.partition.sizes.data();
  sanitized_ = model_.noisy.sanitized.data();
  workload_offsets_ = model_.workload.offsets.data();
  shard_count_ = 1;
  shard_of_cluster_.assign(nc, 0);

  cluster_rows_.resize(nc);
  for (size_t c = 0; c < nc; ++c) {
    cluster_rows_[c] = model_.noisy.values.data() + c * ni;
  }
  if (model_.has_noisy_f32) {
    cluster_rows_f32_.resize(nc);
    for (size_t c = 0; c < nc; ++c) {
      cluster_rows_f32_[c] = model_.noisy_f32.values.data() + c * ni;
    }
  }
  workload_row_.resize(nu);
  for (size_t u = 0; u < nu; ++u) {
    workload_row_[u] =
        model_.workload.entries.data() + model_.workload.offsets[u];
  }
}

Status ServingEngine::InitFromMapped() {
  const int64_t num_users = model_.meta.num_users;
  const int64_t num_items = model_.meta.num_items;
  if (num_users < 0 || num_items < 0) {
    return Invalid(SectionId::kGraphMeta, "negative dimensions");
  }
  const size_t nu = static_cast<size_t>(num_users);
  const size_t ni = static_cast<size_t>(num_items);
  num_clusters_ = model_.noisy.num_clusters;
  const size_t nc = static_cast<size_t>(num_clusters_);

  cluster_of_ = mapped_->cluster_of();
  cluster_sizes_ = mapped_->cluster_sizes();
  sanitized_ = mapped_->sanitized();
  workload_offsets_ = mapped_->workload_offsets();
  shard_count_ = mapped_->shard_count();

  // Semantic validation — the same checks (and messages) ValidateModel
  // runs on an owned model, rephrased over the mapped views. Everything
  // here must pass BEFORE any pointer table is trusted.
  for (size_t u = 0; u < nu; ++u) {
    const int64_t c = cluster_of_[u];
    if (c < 0 || c >= num_clusters_) {
      return Invalid(SectionId::kPartition, "cluster id out of range");
    }
  }
  const std::vector<ShardTableEntry>& table = mapped_->shard_table();
  uint64_t total_workload = 0;
  shard_of_cluster_.assign(nc, 0);
  for (size_t s = 0; s < table.size(); ++s) {
    for (int64_t c = table[s].cluster_begin; c < table[s].cluster_end; ++c) {
      shard_of_cluster_[static_cast<size_t>(c)] = static_cast<int32_t>(s);
    }
    total_workload += table[s].workload_entries;
  }
  if (workload_offsets_[0] != 0 || workload_offsets_[nu] != total_workload) {
    return Invalid(SectionId::kWorkload, "offsets do not index the entries");
  }
  for (size_t u = 0; u < nu; ++u) {
    if (workload_offsets_[u] > workload_offsets_[u + 1]) {
      return Invalid(SectionId::kWorkload, "offsets not monotone");
    }
  }
  for (size_t s = 0; s < table.size(); ++s) {
    const MappedArtifact::Shard& sh = mapped_->shards()[s];
    for (uint64_t k = 0; k < table[s].workload_entries; ++k) {
      const int64_t v = sh.workload_entries[k].user;
      if (v < 0 || v >= num_users) {
        return Invalid(SectionId::kWorkload, "entry user out of range");
      }
    }
  }

  // Per-cluster noisy rows, addressed inside their shard's block.
  cluster_rows_.resize(nc);
  if (model_.has_noisy_f32) cluster_rows_f32_.resize(nc);
  for (size_t s = 0; s < table.size(); ++s) {
    const MappedArtifact::Shard& sh = mapped_->shards()[s];
    for (int64_t c = table[s].cluster_begin; c < table[s].cluster_end; ++c) {
      const auto local =
          static_cast<size_t>(c - table[s].cluster_begin) * ni;
      cluster_rows_[static_cast<size_t>(c)] = sh.noisy_rows + local;
      if (model_.has_noisy_f32) {
        cluster_rows_f32_[static_cast<size_t>(c)] =
            sh.noisy_rows_f32 + local;
      }
    }
  }

  // Per-user rows: walk users ascending, advancing one cursor per shard —
  // exactly the order SaveShardedArtifact concatenated them in. If the
  // cursors do not land exactly on the per-shard totals the manifest
  // promised, the shard set is internally inconsistent and nothing built
  // so far may be served.
  workload_row_.resize(nu);
  std::vector<uint64_t> wcursor(table.size(), 0);
  for (size_t u = 0; u < nu; ++u) {
    const auto s = static_cast<size_t>(
        shard_of_cluster_[static_cast<size_t>(cluster_of_[u])]);
    const MappedArtifact::Shard& sh = mapped_->shards()[s];
    workload_row_[u] = sh.workload_entries + wcursor[s];
    wcursor[s] += workload_offsets_[u + 1] - workload_offsets_[u];
  }
  for (size_t s = 0; s < table.size(); ++s) {
    if (wcursor[s] != table[s].workload_entries) {
      return Invalid(SectionId::kWorkload,
                     "shard workload rows disagree with the manifest totals");
    }
  }
  return Status::Ok();
}

const std::vector<double>& ServingEngine::global_average() const {
  std::call_once(global_->once, [this] {
    PRIVREC_SPAN("artifact.global_average");
    global_->row = GlobalAverageUtilities(release_view());
  });
  return global_->row;
}

Result<ServingEngine> ServingEngine::FromModel(ArtifactModel model) {
  Status valid = ValidateModel(model);
  if (!valid.ok()) return valid;

  ServingEngine engine;
  engine.model_ = std::move(model);
  engine.BuildOwnedViews();
  return engine;
}

Result<ServingEngine> ServingEngine::FromMapped(
    std::shared_ptr<const MappedArtifact> mapped) {
  PRIVREC_CHECK(mapped != nullptr);
  ServingEngine engine;
  engine.mapped_ = std::move(mapped);

  // Scalars live in the manifest's metadata blob; the arrays stay in the
  // mapped files and are reached through the views.
  const ManifestMeta& mm = engine.mapped_->meta();
  engine.model_.meta = mm.meta;
  engine.model_.provenance = mm.provenance;
  engine.model_.noisy.num_clusters = mm.num_clusters;
  engine.model_.noisy.empty_clusters = mm.empty_clusters;
  engine.model_.noisy.singleton_clusters = mm.singleton_clusters;
  engine.model_.noisy.nonfinite_sanitized = mm.nonfinite_sanitized;
  engine.model_.has_noisy_f32 = mm.has_noisy_f32;
  engine.model_.noisy_f32.source_crc32 = mm.noisy_f32_source_crc32;

  Status init = engine.InitFromMapped();
  if (!init.ok()) return init;
  return engine;
}

Result<ServingEngine> ServingEngine::Load(const std::string& path) {
  // A shard file passed by mistake gets a pointed error; everything else
  // that is not a manifest fails MappedArtifact::Open's magic check.
  uint32_t magic = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  }
  if (magic == kShardMagic) {
    return Status::InvalidArgument(
        "'" + path +
        "' is a shard file; load its .pvram manifest instead");
  }
  Result<std::shared_ptr<const MappedArtifact>> mapped =
      MappedArtifact::Open(path, MapOptionsFromEnv());
  if (!mapped.ok()) return mapped.status();
  return FromMapped(std::move(*mapped));
}

Status ServingEngine::CheckGraph(uint64_t expected_hash) const {
  if (model_.meta.graph_hash != expected_hash) {
    return Status::GraphMismatch(
        "artifact was built from a different dataset (fingerprint " +
        std::to_string(model_.meta.graph_hash) + ", requested " +
        std::to_string(expected_hash) + ")");
  }
  return Status::Ok();
}

Status ServingEngine::CheckEpsilon(double expected_epsilon) const {
  if (model_.provenance.epsilon != expected_epsilon) {
    return Status::ProvenanceMismatch(
        "artifact's DP release paid epsilon = " +
        std::to_string(model_.provenance.epsilon) +
        ", request asked for epsilon = " + std::to_string(expected_epsilon));
  }
  return Status::Ok();
}

Result<ServeRecommender> MakeServeRecommender(const ServingEngine* engine,
                                              const ServeSpec& spec) {
  PRIVREC_CHECK(engine != nullptr);
  if (spec.mechanism != "Cluster") {
    return Status::InvalidArgument(
        "the serve path serves only the Cluster mechanism, not '" +
        spec.mechanism +
        "'; the baselines are in-memory evaluators (core::MakeRecommender)");
  }
  if (spec.expected_graph_hash != 0) {
    Status gate = engine->CheckGraph(spec.expected_graph_hash);
    if (!gate.ok()) return gate;
  }
  // The cluster release is frozen in the artifact: serving it under a
  // different ε than it paid would misreport the privacy guarantee.
  Status gate = engine->CheckEpsilon(spec.epsilon);
  if (!gate.ok()) return gate;
  return ServeRecommender(engine);
}

}  // namespace privrec::serving
