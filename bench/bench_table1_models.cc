// Table I reproduction: the 22-model catalog with occupation size in GPU
// memory, loading time, and inference latency at batch 32 — plus the
// regression fits the scheduler derives from them (§IV-A) and a live
// profiling run of the scaled-down CPU models demonstrating the paper's
// profiling procedure.
#include <cstdio>

#include "metrics/reporter.h"
#include "models/latency_model.h"
#include "models/zoo.h"
#include "tensor/table1.h"

using namespace gfaas;

int main() {
  std::printf("=== Table I: models used in the evaluation ===\n");
  metrics::Table table(
      {"Model", "Size(MB)", "Loading time(s)", "Inference time(s, batch 32)"});
  for (const auto& profile : models::table1_catalog()) {
    table.add_row({profile.name, std::to_string(profile.occupation / MB(1)),
                   metrics::Table::fmt(sim_to_seconds(profile.load_time)),
                   metrics::Table::fmt(sim_to_seconds(profile.infer_time_b32))});
  }
  std::printf("%s\n", table.to_string().c_str());

  auto load_model = models::LoadTimeModel::fit(models::table1_catalog());
  if (load_model.ok()) {
    std::printf(
        "Load-time regression across the catalog (t = base + size/bandwidth):\n"
        "  base cost:          %.2f s (process start + context init)\n"
        "  implied bandwidth:  %.2f GB/s effective upload\n\n",
        sim_to_seconds(load_model->base_cost()), load_model->bandwidth_bps() / 1e9);
  }

  std::printf(
      "=== Profiling procedure demo (batch-size regression, scaled CPU models) "
      "===\n");
  metrics::Table prof({"Model", "b=1(ms)", "b=2(ms)", "b=4(ms)", "slope(ms/img)",
                       "R^2"});
  tensor::Profiler profiler({1, 2, 4});
  // Profile a representative model per family (full sweep is slow on CPU).
  for (const char* name : {"squeezenet1.1", "resnet18", "alexnet", "vgg11"}) {
    auto result = profiler.profile(*models::find_model(name), /*repeats=*/1);
    if (!result.ok()) {
      std::fprintf(stderr, "profiling %s failed: %s\n", name,
                   result.status().to_string().c_str());
      return 1;
    }
    prof.add_row({name, metrics::Table::fmt(result->points[0].latency / 1e3),
                  metrics::Table::fmt(result->points[1].latency / 1e3),
                  metrics::Table::fmt(result->points[2].latency / 1e3),
                  metrics::Table::fmt(result->fit.slope / 1e3),
                  metrics::Table::fmt(result->fit.r_squared)});
  }
  std::printf("%s", prof.to_string().c_str());
  return 0;
}
