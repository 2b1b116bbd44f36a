// Umbrella header: the complete public API of the streammerge library.
//
// Include this to get every subsystem; fine-grained headers remain
// available for faster builds. See README.md for an overview and
// DESIGN.md for the mapping from modules to the paper's results.
#ifndef SMERGE_STREAMMERGE_H
#define SMERGE_STREAMMERGE_H

// Fibonacci substrate.
#include "fib/fibonacci.h"

// Core: merge trees/forests, optimal costs and constructions, the plan
// IR and its verifier.
#include "core/buffer.h"
#include "core/full_cost.h"
#include "core/merge_cost.h"
#include "core/merge_forest.h"
#include "core/merge_tree.h"
#include "core/model.h"
#include "core/plan.h"
#include "core/tree_builder.h"

// Slot-accurate schedules, channel assignment, diagrams.
#include "schedule/channels.h"
#include "schedule/diagram.h"
#include "schedule/stream_schedule.h"

// On-line Delay Guaranteed cost model; the pluggable on-line policies.
#include "online/delay_guaranteed.h"
#include "online/policy.h"

// General-arrivals merging: dyadic, batching, off-line optimum.
#include "merging/batching.h"
#include "merging/dyadic.h"
#include "merging/general_forest.h"
#include "merging/optimal_general.h"

// The live serving runtime: sharded ServerCore, incremental channel
// ledger, capacity-aware admission.
#include "server/channel_ledger.h"
#include "server/server_core.h"

// Simulation: arrivals, workloads, the multi-object engine, experiment
// runners, Section-5 extensions.
#include "sim/arrivals.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/hybrid.h"
#include "sim/workload.h"

// Utilities.
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/table.h"

#endif  // SMERGE_STREAMMERGE_H
