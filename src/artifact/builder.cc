#include "artifact/builder.h"

#include <utility>
#include <vector>

#include "common/crc32.h"
#include "core/recommender.h"
#include "graph/metrics.h"
#include "obs/trace.h"
#include "similarity/common_neighbors.h"

namespace privrec::artifact {

ModelArtifactBuilder::ModelArtifactBuilder(
    const graph::SocialGraph* social,
    const graph::PreferenceGraph* preferences)
    : social_(social), preferences_(preferences) {
  PRIVREC_CHECK(social != nullptr && preferences != nullptr);
  PRIVREC_CHECK_MSG(social->num_nodes() == preferences->num_users(),
                    "social and preference graphs disagree on |U|");
}

void ModelArtifactBuilder::SetPartition(
    const community::Partition* partition) {
  partition_ = partition;
  publisher_.reset();  // the publisher is bound to the old partition
}

void ModelArtifactBuilder::SetWorkload(
    const similarity::SimilarityWorkload* workload) {
  workload_ = workload;
  publisher_.reset();
}

uint64_t ModelArtifactBuilder::graph_hash() {
  if (!graph_hash_) {
    graph_hash_ = graph::DatasetFingerprint(*social_, *preferences_);
  }
  return *graph_hash_;
}

const community::Partition& ModelArtifactBuilder::EnsurePartition(
    const BuildOptions& options) {
  if (partition_ != nullptr) return *partition_;
  if (!owned_partition_) {
    owned_partition_ =
        community::RunLouvain(*social_, options.louvain).partition;
  }
  return *owned_partition_;
}

const similarity::SimilarityWorkload& ModelArtifactBuilder::EnsureWorkload(
    const BuildOptions& options) {
  if (workload_ != nullptr) return *workload_;
  if (!owned_workload_) {
    static const similarity::CommonNeighbors kDefaultMeasure;
    const similarity::SimilarityMeasure& measure =
        options.measure != nullptr ? *options.measure : kDefaultMeasure;
    owned_workload_ =
        similarity::SimilarityWorkload::Compute(*social_, measure);
  }
  return *owned_workload_;
}

Result<serving::ArtifactModel> ModelArtifactBuilder::Build(
    const BuildOptions& options) {
  PRIVREC_SPAN("artifact.build");
  if (options.include_reference_sections) {
    return Status::InvalidArgument(
        "include_reference_sections is retired: artifacts carry only the "
        "sanitized release; evaluate the baselines in memory");
  }
  const community::Partition& partition = EnsurePartition(options);
  const similarity::SimilarityWorkload& workload = EnsureWorkload(options);
  if (partition.num_nodes() != social_->num_nodes()) {
    return Status::InvalidArgument(
        "partition does not cover the social graph's node set");
  }
  if (workload.num_users() != social_->num_nodes()) {
    return Status::InvalidArgument(
        "workload does not cover the social graph's node set");
  }

  core::RecommenderContext context;
  context.social = social_;
  context.preferences = preferences_;
  context.workload = &workload;

  // The A_w publication — the one ε-spending step. The publisher is
  // reused across builds with the same (epsilon, seed) so its invocation
  // counter mirrors an in-memory recommender's repeated Recommend calls.
  if (publisher_ == nullptr || publisher_epsilon_ != options.epsilon ||
      publisher_seed_ != options.seed) {
    core::ClusterRecommenderOptions cluster_options;
    cluster_options.epsilon = options.epsilon;
    cluster_options.seed = options.seed;
    publisher_ = std::make_unique<core::ClusterRecommender>(
        context, partition, cluster_options);
    publisher_epsilon_ = options.epsilon;
    publisher_seed_ = options.seed;
  }
  core::ClusterRelease release = publisher_->ComputeRelease();

  serving::ArtifactModel model;
  model.meta.graph_hash = graph_hash();
  model.meta.num_users = social_->num_nodes();
  model.meta.num_items = preferences_->num_items();
  model.meta.num_social_edges = social_->num_edges();
  model.meta.measure_name = workload.measure_name();

  model.partition.cluster_of = partition.cluster_of();
  model.partition.sizes = partition.sizes();

  model.workload.offsets.assign(workload.offsets().begin(),
                                workload.offsets().end());
  model.workload.entries.reserve(workload.entries().size());
  for (const similarity::SimilarityEntry& e : workload.entries()) {
    model.workload.entries.push_back({e.user, e.score});
  }

  model.noisy.num_clusters = partition.num_clusters();
  model.noisy.values = std::move(release.values);
  model.noisy.sanitized = std::move(release.sanitized);
  model.noisy.empty_clusters = release.empty_clusters;
  model.noisy.singleton_clusters = release.singleton_clusters;
  model.noisy.nonfinite_sanitized = release.nonfinite_sanitized;

  if (options.table_f32) {
    // Quantize the released table to f32 and bind the mirror to its f64
    // source by CRC so a serve path can prove the widths agree.
    model.has_noisy_f32 = true;
    model.noisy_f32.values.reserve(model.noisy.values.size());
    for (double v : model.noisy.values) {
      model.noisy_f32.values.push_back(static_cast<float>(v));
    }
    model.noisy_f32.source_crc32 =
        Crc32(model.noisy.values.data(),
              model.noisy.values.size() * sizeof(double));
  }

  model.provenance.epsilon = options.epsilon;
  model.provenance.sensitivity = preferences_->max_weight();
  model.provenance.seed = options.seed;
  model.provenance.ledger_id = options.ledger_id;

  return model;
}

}  // namespace privrec::artifact
