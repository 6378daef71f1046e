// The in-memory form of a model artifact: everything the serve phase is
// allowed to know. Produced by artifact::ModelArtifactBuilder, persisted
// by SaveArtifact / SaveShardedArtifact (artifact/shard_layout.h),
// consumed by ServingEngine.
//
// Deliberately NOT here: the social graph and the private PreferenceGraph,
// nor any statistic of the preference graph that was not sanitized. The
// paper's mechanism serves from these sections alone; the evaluation
// baselines (Exact/NOU/NOE/GS/LRM) read the private graph and so run in
// memory only (core::MakeRecommender), never from an artifact.

#ifndef PRIVREC_ARTIFACT_MODEL_H_
#define PRIVREC_ARTIFACT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace privrec::serving {

// The model's logical sections, named in validation errors. (The on-disk
// layout has its own section ids: ManifestSectionId / ShardSectionId.)
enum class SectionId : uint32_t {
  kGraphMeta = 1,
  kPartition = 2,
  kWorkload = 3,
  kNoisyTable = 4,
  kProvenance = 5,
  // 6 and 7 (the baselines' preference CSR and low-rank factors) are
  // retired.
  kNoisyTableF32 = 8,  // optional (f32-quantized mirror of kNoisyTable)
};

// Stable human-readable section name for error messages.
const char* SectionName(SectionId id);

// One similarity-workload record: sim(u, v) = score for neighbor v.
// Mirrors similarity::SimilarityEntry without depending on the similarity
// library (member names must stay `.user` / `.score` — the shared
// reconstruction template reads them generically).
struct WorkloadEntry {
  int64_t user = 0;
  double score = 0.0;

  friend bool operator==(const WorkloadEntry&, const WorkloadEntry&) = default;
};

// Section 1: dataset identity and the dimensions every serve path needs.
struct GraphMetaSection {
  uint64_t graph_hash = 0;  // graph::DatasetFingerprint of (G_s, G_p)
  int64_t num_users = 0;    // |U| = social nodes = preference users
  int64_t num_items = 0;
  int64_t num_social_edges = 0;
  std::string measure_name;  // similarity measure the workload was built with
};

// Section 2: createClusters output (public data only).
struct PartitionSection {
  std::vector<int64_t> cluster_of;  // per user node
  std::vector<int64_t> sizes;       // per cluster
};

// Section 3: the similarity workload CSR (public data only).
struct WorkloadSection {
  std::vector<uint64_t> offsets;  // num_users + 1 entries
  std::vector<WorkloadEntry> entries;
};

// Section 4: the A_w release — the only artifact content derived from the
// private preference graph, already ε-DP sanitized.
struct NoisyTableSection {
  int64_t num_clusters = 0;
  std::vector<double> values;     // row-major [cluster][item]
  std::vector<uint8_t> sanitized;  // per cluster
  int64_t empty_clusters = 0;
  int64_t singleton_clusters = 0;
  int64_t nonfinite_sanitized = 0;
};

// Section 5: DP provenance — which budget bought this release.
struct ProvenanceSection {
  double epsilon = 0.0;
  double sensitivity = 0.0;  // per-edge bound the noise was calibrated to
  uint64_t seed = 0;         // RNG seed of the publication step
  std::string ledger_id;     // BudgetLedger entry id ("" if unledgered)
};

// Section 8 (optional): the same A_w release quantized to f32, written by
// the builder's table_f32 option. Pure post-processing of the released
// table (no additional privacy cost); `source_crc32` is the CRC-32 of the
// f64 value bytes it was quantized from, so a serve path can prove the
// two widths describe the same release. The f64 section stays required —
// global-average fallback and provenance always read full width.
struct NoisyTableF32Section {
  std::vector<float> values;   // row-major [cluster][item]
  uint32_t source_crc32 = 0;   // Crc32 of the f64 values it mirrors
};

struct ArtifactModel {
  GraphMetaSection meta;
  PartitionSection partition;
  WorkloadSection workload;
  NoisyTableSection noisy;
  ProvenanceSection provenance;
  bool has_noisy_f32 = false;
  NoisyTableF32Section noisy_f32;
};

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_MODEL_H_
