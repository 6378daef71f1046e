// Library version and build provenance.

#ifndef PRIVREC_COMMON_VERSION_H_
#define PRIVREC_COMMON_VERSION_H_

// Stamped by CMake with `git describe --always --dirty` at configure time
// so that benchmark records (BENCH_*.json) identify the code they
// measured; a modified working tree reads "<rev>-dirty".
#ifndef PRIVREC_GIT_REVISION
#define PRIVREC_GIT_REVISION "unknown"
#endif

namespace privrec {

inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";
inline constexpr const char* kGitRevision = PRIVREC_GIT_REVISION;

}  // namespace privrec

#endif  // PRIVREC_COMMON_VERSION_H_
