// Shared pieces of the dfamr benchmark: the metric registry, the result
// sink, the correctness tally, the benchmark's own span recorder and small
// timing/statistics helpers. See main.cpp for the command line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "amr/config.hpp"
#include "core/variants.hpp"

namespace perfbench {

using dfamr::amr::Config;
using dfamr::amr::Variant;

// ---- metric registry --------------------------------------------------

/// End-to-end metrics are printed by untraced runs (--trace 0), per-layer
/// metrics by the traced run (--trace 1). Every workload prints every
/// metric of its mode.
enum class Mode { EndToEnd, Layer };

struct MetricDef {
    const char* name;
    const char* unit;
    const char* better;  // "lower" | "higher"
    Mode mode;
    /// Which end-to-end metric the layer metric should move, on which
    /// workload, and where it should not (empty for end-to-end metrics).
    const char* moves;
};

const std::vector<MetricDef>& metric_registry();

// ---- results ------------------------------------------------------------

/// Collects the run's metrics and its correctness tally.
class Report {
public:
    void set(const std::string& name, double value);
    /// One checked operation (a run, a job, a comparison). `ok == false`
    /// counts it as failed and records why on stderr.
    void check(bool ok, const std::string& what);
    bool correct() const { return failed_ == 0; }
    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }
    const std::map<std::string, double>& values() const { return values_; }

private:
    std::map<std::string, double> values_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

// ---- spans ----------------------------------------------------------------

/// The benchmark's own trace: one span per call (or timed batch of calls)
/// into a layer, with its parent span and the id of the run or job it
/// belongs to. Kept in memory, written out once at the end. Recording is
/// off unless enabled (end-to-end runs never record).
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    std::uint64_t group = 0;   // shared by all spans of one run / job / probe
    std::string layer;
    std::string name;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
};

void spans_enable(bool on);
/// Starts a new group id (one per traced run, job or probe); spans opened
/// afterwards on this thread carry it.
std::uint64_t spans_new_group();
/// Makes spans opened afterwards on this thread join an existing group.
void spans_join_group(std::uint64_t group);
/// Self time per layer in ms: each span's duration minus the part covered
/// by its children.
std::map<std::string, double> spans_self_ms();
std::vector<SpanRecord> spans_snapshot();

class Span {
public:
    Span(const char* layer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
    bool active_ = false;
};

// ---- timing and statistics ----------------------------------------------

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double seconds_since(std::int64_t t0_ns) { return 1e-9 * static_cast<double>(now_ns() - t0_ns); }

/// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// One stdout line: sample count, median, quartiles and extremes.
void print_samples(const std::string& name, const std::vector<double>& v);

/// Calls `batch` (which performs some operations and returns how many)
/// until `min_ns` has passed, `reps` times, and returns the median
/// nanoseconds per operation over the repetitions.
template <typename F>
double median_ns_per_op(int reps, std::int64_t min_ns, F&& batch) {
    std::vector<double> per_op;
    for (int r = 0; r < reps; ++r) {
        std::int64_t ops = 0;
        const std::int64_t t0 = now_ns();
        std::int64_t t1 = t0;
        while (t1 - t0 < min_ns) {
            ops += batch();
            t1 = now_ns();
        }
        per_op.push_back(static_cast<double>(t1 - t0) / static_cast<double>(ops));
    }
    return median(std::move(per_op));
}

double peak_rss_mb();
/// Last-level cache size the C library reports (bytes; <= 0 if unknown).
long llc_bytes();

// ---- workloads --------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_path;
};

/// A fixed miniAMR problem run by the three variants. `hybrid` is the
/// fork-join / TAMPI+OSS layout (2 ranks x 2 workers); `mpi` is the
/// MPI-only layout over the same global mesh (4 ranks, one core each);
/// `tampi` is `hybrid` plus the paper's section IV options.
struct Problem {
    Config hybrid;
    Config mpi;
    Config tampi;
    dfamr::core::RunOptions opts;  // transport of the timed runs
    bool compare_inproc = false;   // timed runs must match an inproc twin
};

/// Returns false for an unknown workload name.
bool make_problem(const std::string& workload, std::uint64_t seed, Problem& out);

/// End-to-end: repeated interleaved untraced rounds of the three variants.
/// Sets the per-variant metrics and peak_rss_mb, plus setup_s and
/// jobs_per_s from the runs unless `after_round` is given: serve_mix runs
/// a served batch after every round and reports those two from the server.
void measure_problem(const Problem& p, const Args& args, Report& report,
                     const std::function<void()>& after_round = {});
/// Per-layer: the traced runs, the tracing-overhead pairs and the phase
/// times (RunResult.times) of the problem.
void trace_problem(const Problem& p, const Args& args, Report& report);

/// serve_mix end to end and its per-layer serve numbers (serve_mix.cpp).
void measure_serve(const Problem& p, const Args& args, Report& report);
void trace_serve(const Args& args, bool full, Report& report);

/// Module microbenchmarks at the block shape `shape_cfg` (layers.cpp).
void measure_layers(const Config& shape_cfg, std::uint64_t seed, Report& report);

}  // namespace perfbench
