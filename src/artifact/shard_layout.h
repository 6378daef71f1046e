// The artifact layout: one .pvram manifest plus K shard files, all
// framed as "aligned containers" — a fixed header, an up-front section
// table, and section payloads placed at 64-byte-aligned file offsets with
// zero padding between them. It is the only on-disk form of a release; a
// one-shard set (SaveArtifact, artifact/model_io.h) is the unsharded case.
// The alignment is the point: the noisy-table rows and the workload CSR
// records are stored as raw little-endian
// fixed-width arrays, so a reader that maps the file can serve them in
// place (artifact/mapped.h) without a deserialize pass.
//
// Sharding axis (and why it is ε-free): the builder partitions the noisy
// table by cluster range, and every user's workload row lands in the
// shard owning the user's cluster. All noise was drawn at build
// time, so splitting the frozen release across files is pure
// post-processing — byte-identical serving is provable, and
// sharded_artifact_test proves it.
//
// File layout (both manifest and shards):
//   u32 magic | u32 version | u32 section_count | u32 reserved
//   section_count x 32-byte table entries:
//     u32 id | u32 reserved | u64 payload_offset | u64 payload_size
//     | u32 crc32(payload) | u32 reserved
//   payloads at kShardAlignment-aligned offsets, zero padding between.
//
// Integrity: every payload carries a CRC32; the manifest's shard table
// additionally records each shard file's byte size and a CRC of its
// frame (header + section table). A flipped bit anywhere therefore fails
// closed — kDataLoss for checksum mismatches, kParseError for structural
// damage — and a shard from a different build fails the fingerprint /
// token gates (kGraphMismatch / kProvenanceMismatch) before any payload
// is trusted.

#ifndef PRIVREC_ARTIFACT_SHARD_LAYOUT_H_
#define PRIVREC_ARTIFACT_SHARD_LAYOUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "artifact/model.h"
#include "common/status.h"

namespace privrec::serving {

// "PVRM" / "PVRS" little-endian. Distinct so ServingEngine::Load can tell
// a shard file passed by mistake from its manifest.
inline constexpr uint32_t kManifestMagic = 0x4D525650;
inline constexpr uint32_t kShardMagic = 0x53525650;
// Version 2 dropped the baselines' preference and low-rank sections and
// the metadata only they read; a version-1 set is kVersionMismatch.
inline constexpr uint32_t kShardFormatVersion = 2;

// Payload alignment. 64 covers every element type in the format (max 8)
// with headroom for cache-line-aligned access.
inline constexpr uint64_t kShardAlignment = 64;

// Manifest section ids. On-disk values; never renumber.
enum class ManifestSectionId : uint32_t {
  kManifestMeta = 1,     // ByteWriter blob (ManifestMeta)
  kShardTable = 2,       // ByteWriter blob (vector<ShardTableEntry>)
  kClusterOf = 3,        // raw i64[num_users]
  kClusterSizes = 4,     // raw i64[num_clusters]
  kSanitizedFlags = 5,   // raw u8[num_clusters]
  kWorkloadOffsets = 6,  // raw u64[num_users + 1]
  // 7-9 are retired (version 1's preference offsets and low-rank B/L);
  // never reuse them.
};

// Shard section ids. On-disk values; never renumber.
enum class ShardSectionId : uint32_t {
  kShardHeader = 1,       // ByteWriter blob (ShardHeader)
  kNoisyRows = 2,         // raw f64[(cluster_end-cluster_begin) * num_items]
  kWorkloadEntries = 3,   // raw WorkloadEntry[workload_entries] (16 B each)
  // 4-5 are retired (version 1's preference items/weights); never reuse
  // them.
  kNoisyRowsF32 = 6,      // raw f32, same shape as kNoisyRows (optional)
};

const char* ManifestSectionName(ManifestSectionId id);
const char* ShardSectionName(ShardSectionId id);

// ---- Aligned container framing ----

// A section to encode. The payload is a view: raw-array sections point
// straight into the model's buffers, so a save copies each byte once,
// into the encoded container. The bytes must outlive the encode call.
struct AlignedSection {
  uint32_t id = 0;
  std::string_view payload;
};

// One parsed section-table row; the payload itself stays in the file.
struct AlignedSectionView {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

struct AlignedContainerView {
  uint32_t magic = 0;
  uint32_t version = 0;
  // Bytes covered by the frame (header + section table) — what the
  // manifest's per-shard frame CRC is computed over.
  uint64_t frame_bytes = 0;
  std::vector<AlignedSectionView> sections;
};

// Serializes sections into an aligned container (deterministic bytes).
std::string EncodeAlignedContainer(uint32_t magic, uint32_t version,
                                   const std::vector<AlignedSection>& sections);

// Parses the frame and bounds-checks every table entry against the actual
// file size (payload CRCs are NOT verified here — the mapped reader does
// that per section so it can name the damaged part and return kDataLoss).
// Errors: kParseError (truncated/foreign/structurally damaged),
// kVersionMismatch.
Result<AlignedContainerView> ParseAlignedContainer(const char* data,
                                                   uint64_t size,
                                                   uint32_t expected_magic,
                                                   uint32_t expected_version,
                                                   const std::string& what);

// ---- Manifest / shard metadata blobs ----

// Everything global and scalar-sized: the model's graph-meta and
// provenance sections plus the noisy table's scalars, whose arrays moved
// into shards or raw sections.
struct ManifestMeta {
  GraphMetaSection meta;
  ProvenanceSection provenance;
  int64_t num_clusters = 0;  // NoisyTableSection scalars
  int64_t empty_clusters = 0;
  int64_t singleton_clusters = 0;
  int64_t nonfinite_sanitized = 0;
  uint32_t shard_count = 0;
  // Identity of this build: a deterministic mix of the dataset
  // fingerprint and the DP provenance. Every shard repeats it, so a shard
  // spliced in from a different build of the SAME dataset still fails
  // closed (kProvenanceMismatch) instead of serving mixed noise.
  uint64_t artifact_token = 0;
  // Whether every shard carries a kNoisyRowsF32 mirror, and the CRC-32 of
  // the f64 values it was quantized from (NoisyTableF32Section semantics).
  bool has_noisy_f32 = false;
  uint32_t noisy_f32_source_crc32 = 0;
};

struct ShardTableEntry {
  std::string file;  // relative to the manifest's directory
  int64_t cluster_begin = 0;
  int64_t cluster_end = 0;
  uint64_t file_size = 0;
  uint32_t frame_crc32 = 0;  // CRC of the shard's header + section table
  uint64_t noisy_values = 0;      // f64 count
  uint64_t workload_entries = 0;  // WorkloadEntry count
};

struct ShardHeader {
  uint64_t graph_hash = 0;
  uint64_t artifact_token = 0;
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  int64_t cluster_begin = 0;
  int64_t cluster_end = 0;
  int64_t num_items = 0;
  uint64_t workload_entries = 0;
};

std::string EncodeManifestMeta(const ManifestMeta& m);
Status DecodeManifestMeta(const std::string& payload, ManifestMeta* m);
std::string EncodeShardTable(const std::vector<ShardTableEntry>& t);
Status DecodeShardTable(const std::string& payload,
                        std::vector<ShardTableEntry>* t);
std::string EncodeShardHeader(const ShardHeader& h);
Status DecodeShardHeader(const std::string& payload, ShardHeader* h);

// The build-identity token recorded in the manifest and every shard.
uint64_t ArtifactToken(const ArtifactModel& model);

// ---- Sharded save ----

struct ShardingOptions {
  // Requested shard count; clamped to [1, max(num_clusters, 1)] — a shard
  // must own at least one whole cluster for the noisy rows to stay
  // contiguous.
  int64_t shards = 1;
};

// Cluster-range boundaries for `shards` shards (size effective_K + 1,
// bounds[k]..bounds[k+1] are shard k's clusters), balanced greedily by
// estimated shard bytes (workload records + noisy rows).
std::vector<int64_t> ShardClusterBounds(const ArtifactModel& model,
                                        int64_t shards);

// Writes `manifest_path` plus sibling shard files named by content,
// "<manifest_path>.shard<k>.<frame crc32 hex>". Every file is published
// atomically (same-directory temp + rename) and the manifest is written
// LAST: its rename is the commit. Because the shard names differ between
// generations, a failure at any write or rename of an overwrite leaves
// the previous manifest and every shard it names intact and loadable.
// After the commit, every "<manifest_path>.shard*" file the new manifest
// does not name (the previous generation, orphans and temp files of
// earlier failed saves) is removed. Fault points artifact.open /
// artifact.write / artifact.rename are hit once per file, shards first.
// Instrumented: privrec.artifact.save_ms, privrec.artifact.bytes (the
// whole set), span artifact.save.
Status SaveShardedArtifact(const ArtifactModel& model,
                           const std::string& manifest_path,
                           const ShardingOptions& options);

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_SHARD_LAYOUT_H_
