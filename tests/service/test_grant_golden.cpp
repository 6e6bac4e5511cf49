// Golden grant streams: fixed seeded service runs whose canonical grant
// streams (grant_stream) are committed under tests/service/golden/.  Live
// serving and journal replay share detail::decide_window, so a change to the
// decision path can never show up as a live/replay mismatch; these files pin
// the decisions themselves — windows, lease ids, centrals, DC — byte for
// byte.  The runs cover flat serving under each queue discipline (with
// deadline sheds and mid-stream releases), cell-routed serving with window
// spills, and the journaled drift-repair pass.
//
// Regenerate only when a change is meant to alter grants:
//   VCOPT_UPDATE_GOLDEN=1 ./build/tests/service_tests --gtest_filter='GrantGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cloud.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "util/rng.h"
#include "workload/scenario.h"

#ifndef VCOPT_TEST_DATA_DIR
#define VCOPT_TEST_DATA_DIR "tests/service/golden"
#endif

namespace vcopt::service {
namespace {

using cluster::Cloud;
using cluster::Request;

Cloud scenario_cloud(const workload::SimScenario& scenario) {
  return Cloud(scenario.topology, scenario.catalog, scenario.capacity);
}

struct LiveRun {
  std::string journal;
  std::string grants;
};

/// Seeded arrivals with random priorities, occasional short deadlines (so
/// windows shed) and releases of earlier leases (so capacity evolves).
LiveRun run_stream(const workload::SimScenario& scenario,
                   ServiceOptions options, std::uint64_t seed) {
  Cloud cloud = scenario_cloud(scenario);
  std::ostringstream journal;
  options.clock = ClockMode::kVirtual;
  options.journal = &journal;
  PlacementService svc(cloud, options);
  util::Rng rng(seed);
  std::vector<Outcome> outcomes;
  std::vector<cluster::LeaseId> live;
  double t = 0;
  for (const Request& r : scenario.requests) {
    t += rng.uniform(0.0, 0.02);
    svc.advance_to(t);
    SubmitOptions o;
    o.priority = static_cast<int>(rng.uniform_int(0, 4));
    if (rng.uniform(0.0, 1.0) < 0.2) o.deadline = t + 0.004;
    svc.submit(r, o);
    for (Outcome& done : svc.take_outcomes()) {
      if (has_lease(done.kind)) live.push_back(done.lease);
      outcomes.push_back(std::move(done));
    }
    if (!live.empty() && rng.uniform(0.0, 1.0) < 0.25) {
      svc.release(live.back());
      live.pop_back();
    }
  }
  svc.stop();
  for (Outcome& done : svc.take_outcomes()) outcomes.push_back(std::move(done));
  return {journal.str(), grant_stream(std::move(outcomes))};
}

/// Three rounds of submits, each releasing the previous round's leases, with
/// the clock advanced so the sampler records lease DC and the drift-repair
/// period elapses.
LiveRun run_churn(const workload::SimScenario& scenario,
                  ServiceOptions options) {
  Cloud cloud = scenario_cloud(scenario);
  std::ostringstream journal;
  obs::Recorder recorder;
  recorder.set_enabled(true);
  options.clock = ClockMode::kVirtual;
  options.journal = &journal;
  options.queue_capacity = 4096;
  options.recorder = &recorder;
  options.sample_period = 0.5;
  PlacementService svc(cloud, options);
  std::vector<Outcome> all;
  std::vector<cluster::LeaseId> held;
  double t = 0;
  std::uint64_t id = 1;
  for (int round = 0; round < 3; ++round) {
    for (const Request& r : scenario.requests) {
      svc.submit(Request(r.counts(), id++));
    }
    t += 2.0;
    svc.advance_to(t);
    svc.flush();
    for (cluster::LeaseId lease : held) svc.release(lease);
    held.clear();
    t += 2.0;
    svc.advance_to(t);
    svc.flush();
    for (Outcome& o : svc.take_outcomes()) {
      if (has_lease(o.kind)) held.push_back(o.lease);
      all.push_back(std::move(o));
    }
  }
  svc.stop();
  EXPECT_GT(svc.stats().rebalance_migrations, 0u) << "no drift was repaired";
  for (Outcome& o : svc.take_outcomes()) all.push_back(std::move(o));
  return {journal.str(), grant_stream(std::move(all))};
}

/// Compares the run's grant stream with tests/service/golden/<name>.ndjson
/// (rewriting the file first under VCOPT_UPDATE_GOLDEN=1), and checks that
/// the run's journal replays into the same bytes.
void expect_golden(const std::string& name, const LiveRun& run,
                   const workload::SimScenario& scenario,
                   const ServiceOptions& options) {
  ASSERT_FALSE(run.grants.empty()) << name;
  const std::string path =
      std::string(VCOPT_TEST_DATA_DIR) + "/" + name + ".ndjson";
  const char* update = std::getenv("VCOPT_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << run.grants;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  const std::string want((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(run.grants, want)
      << "--- " << path << " differs: the decision path changed grants ---";

  Cloud fresh = scenario_cloud(scenario);
  std::istringstream journal(run.journal);
  const ReplayResult replayed =
      replay_journal(parse_journal(journal), fresh, options);
  EXPECT_EQ(replayed.grants, run.grants) << name;
}

TEST(GrantGolden, FlatStreamPerDiscipline) {
  const auto scenario = workload::paper_sim_scenario(21);
  for (placement::QueueDiscipline d :
       {placement::QueueDiscipline::kFifo,
        placement::QueueDiscipline::kPriority,
        placement::QueueDiscipline::kSmallestFirst}) {
    ServiceOptions options;
    options.max_batch = 4;
    options.max_wait = 0.01;
    options.discipline = d;
    const LiveRun run = run_stream(scenario, options, 57);
    expect_golden(std::string("flat_") + placement::to_string(d), run,
                  scenario, options);
  }
}

TEST(GrantGolden, RoutedStreamWithSpills) {
  // Long enough for cells to run dry between routing and window close.
  const auto scenario =
      workload::paper_sim_scenario(27, workload::RequestScale::kMedium, 200);
  ServiceOptions options;
  options.max_batch = 4;
  options.max_wait = 0.01;
  options.cell_size = 10;  // 3 racks x 10 nodes -> 3 cells
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& spills = reg.counter("cell/window_spills");
  const std::uint64_t spills_before = spills.value();
  const LiveRun run = run_stream(scenario, options, 8);
  const std::uint64_t live_spills = spills.value() - spills_before;
  reg.set_enabled(was_enabled);
  EXPECT_GT(live_spills, 0u) << "the routed run never spilled out of a cell";
  expect_golden("routed_cell10", run, scenario, options);
}

TEST(GrantGolden, RebalanceStream) {
  const auto scenario = workload::paper_sim_scenario(7);
  ServiceOptions options;
  options.max_batch = 4;
  options.rebalance.enabled = true;
  options.rebalance.period = 1.0;
  options.rebalance.max_moves = 4;
  options.rebalance.drift_ratio = 0.0;
  options.rebalance.lease_cooldown = 1.0;
  options.rebalance.cost_per_gb = 1e-4;
  options.rebalance.shuffle_cost_factor = 1e-4;
  const LiveRun run = run_churn(scenario, options);
  expect_golden("rebalance", run, scenario, options);
}

}  // namespace
}  // namespace vcopt::service
