// Self-test of the benchmark's own checks: each one is shown an error it
// exists to catch, next to a control it must pass.
//
//   1. A runtime serving a generation the oracle was not built for must
//      drop success_rate below 1; the same traffic checked against the
//      right generation must not. A served list altered by one ulp in one
//      utility must fail against the right generation, and the unaltered
//      list must pass.
//   2. A ladder whose top rung still passes must come back as "knee not
//      found", never as a rate; on a ladder that crosses a known knee the
//      bisection must land on the last rung below it.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "artifact/builder.h"
#include "artifact/shard_layout.h"
#include "check.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "load.h"
#include "obs/export.h"
#include "similarity/common_neighbors.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace privrec;

double SuccessRate(const ResponseChecker& checker) {
  return checker.checked() > 0
             ? static_cast<double>(checker.checked() - checker.failures()) /
                   static_cast<double>(checker.checked())
             : 0.0;
}

}  // namespace

int RunSelfTest(const std::string& scratch_dir) {
  data::Dataset dataset = data::MakeTinyDataset(300, 400, 3);
  const auto workload = similarity::SimilarityWorkload::Compute(
      dataset.social, similarity::CommonNeighbors());
  const auto louvain =
      community::RunLouvain(dataset.social, {.restarts = 2, .seed = 3});
  artifact::ModelArtifactBuilder builder(&dataset.social,
                                         &dataset.preferences);
  builder.SetPartition(&louvain.partition);
  builder.SetWorkload(&workload);
  std::vector<std::string> paths;
  for (uint64_t seed : {11u, 22u}) {
    artifact::BuildOptions options;
    options.epsilon = kEpsilon;
    options.seed = seed;
    options.include_reference_sections = false;
    auto model = builder.Build(options);
    const std::string path =
        scratch_dir + "/gen" + std::to_string(seed) + ".pvram";
    Status saved = model.ok() ? serving::SaveShardedArtifact(
                                    *model, path, {.shards = 2})
                              : model.status();
    if (!saved.ok()) {
      std::fprintf(stderr, "self-test set-up: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    paths.push_back(path);
  }
  serve::ServeRuntimeOptions runtime_options;
  runtime_options.swap.spec.mechanism = "Cluster";
  runtime_options.swap.spec.epsilon = kEpsilon;
  serve::ServeRuntime runtime(runtime_options);
  if (!runtime.Activate(paths[1]).ok()) return 1;
  LoadShape shape;
  shape.num_users = dataset.social.num_nodes();

  // 1. The runtime serves generation 22; one oracle knows only 11.
  ResponseChecker wrong(runtime_options.swap.spec, shape.depths);
  ResponseChecker right(runtime_options.swap.spec, shape.depths);
  if (!wrong.Warm(paths[0]).ok() || !right.Warm(paths[1]).ok()) {
    return 1;
  }
  RunIdle(&runtime, &wrong, shape, 50, 1, 1);
  RunIdle(&runtime, &right, shape, 50, 1, 1);
  wrong.Finish();
  right.Finish();
  const double wrong_rate = SuccessRate(wrong);
  const double right_rate = SuccessRate(right);
  const bool generation_caught = wrong_rate < 1.0 && right_rate == 1.0;

  // 1b. The right generation, one response served, then altered.
  ResponseChecker altered(runtime_options.swap.spec, shape.depths);
  if (!altered.Warm(paths[1]).ok()) return 1;
  const serve::ServeRequest request = FirstRequest(shape.num_users, 7);
  serve::ServeResponse response = runtime.Handle(request);
  const bool served_matches = altered.Record(request, response) ==
                              ResponseChecker::Verdict::kMatch;
  bool altered_caught = false;
  if (!response.batch.lists.empty() && !response.batch.lists[0].empty()) {
    double& utility = response.batch.lists[0].back().utility;
    utility = std::nextafter(utility, INFINITY);
    altered_caught = altered.Record(request, response) ==
                     ResponseChecker::Verdict::kFailure;
  }

  // 2a. Every rung of this ladder is far below the runtime's capacity.
  ResponseChecker ladder_checker(runtime_options.swap.spec, shape.depths);
  if (!ladder_checker.Warm(paths[1]).ok()) return 1;
  uint64_t probe = 0;
  KneeResult short_ladder =
      FindKnee(LadderRungs(20.0, 40.0, 1.5), [&](double rps) {
        PhaseOptions phase;
        phase.rps = rps;
        phase.seconds = 0.3;
        phase.threads = 2;
        phase.seed = ++probe;
        phase.first_request_id = 1000 * probe;
        return ProbeRung(&runtime, &ladder_checker, shape, phase, 1000.0);
      });
  const bool not_found_reported =
      !short_ladder.found && !short_ladder.probes.empty() &&
      short_ladder.probes.front().pass;

  // 2b. A ladder across a known knee at 1000 rps.
  KneeResult synthetic =
      FindKnee(LadderRungs(100.0, 4000.0, 1.1), [](double rps) {
        RungResult rung;
        rung.rps = rps;
        rung.pass = rps <= 1000.0;
        rung.throughput_rps = rps;
        return rung;
      });
  const bool knee_located = synthetic.found && synthetic.knee.rps <= 1000.0 &&
                            synthetic.knee.rps * 1.1 > 1000.0;

  const bool pass = generation_caught && served_matches && altered_caught &&
                    not_found_reported && knee_located;
  std::printf(
      "{\"self_test\": {\"wrong_generation_success_rate\": %s, "
      "\"right_generation_success_rate\": %s, "
      "\"wrong_generation_first_failure\": \"%s\", "
      "\"served_list_matches\": %s, \"one_ulp_altered_list_fails\": %s, "
      "\"top_rung_passing_reports_knee_not_found\": %s, "
      "\"synthetic_knee_rps\": %s, \"synthetic_knee_probes\": %zu}, "
      "\"pass\": %s}\n",
      obs::JsonNumber(wrong_rate).c_str(),
      obs::JsonNumber(right_rate).c_str(),
      obs::JsonEscape(wrong.first_failure()).c_str(),
      served_matches ? "true" : "false", altered_caught ? "true" : "false",
      not_found_reported ? "true" : "false",
      obs::JsonNumber(synthetic.knee.rps).c_str(), synthetic.probes.size(),
      pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace perfbench
