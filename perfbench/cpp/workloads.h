#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// align_dense / align_text (align_workloads.cc).
void RunAlignWorkload(const RunConfig& config, Tracer* tracer,
                      Result* result);
/// serve_topk (serve_topk.cc).
void RunServeTopkWorkload(const RunConfig& config, Tracer* tracer,
                          Result* result);
/// serve_fleet (serve_fleet.cc).
void RunServeFleetWorkload(const RunConfig& config, Tracer* tracer,
                           Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
