// Saving an ArtifactModel as the unsharded case of the one artifact
// layout (artifact/shard_layout.h): a .pvram manifest plus one shard.
//
// Saves are atomic and crash-safe across overwrites: the shard is written
// under a content-derived name and the manifest rename commits, so a
// crash or fault at any write or rename leaves the previous artifact at
// `path` loadable (see SaveShardedArtifact). Load with
// ServingEngine::Load or MappedArtifact::Open.
//
// Byte determinism: the files are a pure function of the model's
// contents — no timestamps, pointers, or locale-dependent text — so two
// builds from the same inputs produce identical files. ci/sanitize.sh
// byte-compares artifacts across runs and thread counts to hold this.

#ifndef PRIVREC_ARTIFACT_MODEL_IO_H_
#define PRIVREC_ARTIFACT_MODEL_IO_H_

#include <string>

#include "artifact/model.h"
#include "artifact/shard_layout.h"
#include "common/status.h"

namespace privrec::serving {

inline Status SaveArtifact(const ArtifactModel& model,
                           const std::string& path) {
  return SaveShardedArtifact(model, path, {.shards = 1});
}

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_MODEL_IO_H_
