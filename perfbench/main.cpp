// dfamr benchmark binary. Runs one named workload from a seed, checks its
// outputs, and prints every metric of the selected mode as the last line
// of stdout:
//
//   perfbench --workload sphere_refine --seed 1 --seconds 15 --trace 0
//   perfbench --workload sphere_refine --seed 1 --trace 1 --spans out.jsonl
//   perfbench --list        # the metric registry, one JSON object per line
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// a separate run that times each module's public calls, runs the workload
// once with the program's tracer attached, and writes the benchmark's own
// span file. Every number is measured on the host that runs it.
//
// Exit codes: 0 all checks passed; 1 a correctness check failed (the
// result line still prints, with "correct": false); 2 usage error or a
// build this benchmark refuses to time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "amr/trace.hpp"
#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::vector<MetricDef> build_registry() {
    using M = Mode;
    const char* kRefine = "tampi.refine_s on sphere_refine; nothing on spheres_bulk";
    const char* kBulk = "*.wall_s on spheres_bulk; little on faces_shm";
    const char* kServe = "jobs_per_s on serve_mix only";
    const char* kShm = "*.wall_s on faces_shm only";
    const char* kTcp = "no end-to-end metric on one host (tcp is not used by any workload)";
    const char* kTasks = "tampi.wall_s on sphere_refine; never mpi.wall_s";
    const char* kMpisim = "*.wall_s on sphere_refine; little on spheres_bulk";
    std::vector<MetricDef> r = {
        {"mpi.wall_s", "s", "lower", M::EndToEnd, ""},
        {"forkjoin.wall_s", "s", "lower", M::EndToEnd, ""},
        {"tampi.wall_s", "s", "lower", M::EndToEnd, ""},
        {"tampi.refine_s", "s", "lower", M::EndToEnd, ""},
        {"setup_s", "s", "lower", M::EndToEnd, ""},
        {"peak_rss_mb", "MB", "lower", M::EndToEnd, ""},
        {"jobs_per_s", "1/s", "higher", M::EndToEnd, ""},

        {"amr.copy_face_ns_per_value", "ns", "lower", M::Layer,
         "*.wall_s on sphere_refine and spheres_bulk; little on faces_shm"},
        {"amr.stencil_ns_per_cellvar", "ns", "lower", M::Layer, kBulk},
        {"amr.stencil_flops_per_byte", "flop/B", "higher", M::Layer,
         "computed, not measured: operation count over bytes the kernel must touch"},
        {"amr.pack_ns_per_value", "ns", "lower", M::Layer, "*.wall_s on spheres_bulk and faces_shm"},
        {"amr.unpack_ns_per_value", "ns", "lower", M::Layer,
         "*.wall_s on spheres_bulk and faces_shm"},
        {"amr.split_ns_per_cellvar", "ns", "lower", M::Layer, kRefine},
        {"amr.merge_ns_per_cellvar", "ns", "lower", M::Layer, kRefine},
        {"amr.plan_refine_us", "us", "lower", M::Layer, kRefine},
        {"amr.rcb_partition_us", "us", "lower", M::Layer, kRefine},
        {"amr.comm_plan_us", "us", "lower", M::Layer, kRefine},
        {"amr.checksum_ns_per_cellvar", "ns", "lower", M::Layer,
         "*.wall_s on spheres_bulk; flags a changed checksum stage"},
        {"amr.blocks_split", "count", "lower", M::Layer, "exact; a change flags a changed problem"},
        {"amr.blocks_merged", "count", "lower", M::Layer, "exact; a change flags a changed problem"},
        {"amr.blocks_moved", "count", "lower", M::Layer, "exact; a change flags a changed problem"},
        {"amr.final_blocks", "count", "lower", M::Layer, "exact; a change flags a changed problem"},
        {"stream.triad_gbps", "GB/s", "higher", M::Layer,
         "none: host ceiling for the kernel figures (one thread)"},
        {"stream.array_mib", "MiB", "higher", M::Layer, "none: size of each triad array"},
        {"stream.llc_mib", "MiB", "higher", M::Layer, "none: last-level cache the host reports"},
        {"scenario.advance_ns_per_cellvar", "ns", "lower", M::Layer, kServe},
        {"scenario.score_ns_per_cell", "ns", "lower", M::Layer, kServe},
        {"tasking.trivial_ns_per_task", "ns", "lower", M::Layer, kTasks},
        {"tasking.chain_ns_per_task", "ns", "lower", M::Layer, kTasks},
        {"tasking.fan_ns_per_task", "ns", "lower", M::Layer, kTasks},
        {"tasking.stencil1d_ns_per_task", "ns", "lower", M::Layer, kTasks},
        {"tasking.metg_us", "us", "lower", M::Layer, kTasks},
        {"tasking.tasks_executed", "count", "lower", M::Layer, kTasks},
        {"tasking.steals", "count", "lower", M::Layer, kTasks},
        {"tasking.parks", "count", "lower", M::Layer, kTasks},
        {"tasking.imm_succ_ratio", "ratio", "higher", M::Layer, kTasks},
        {"mpisim.pingpong_64B_us", "us", "lower", M::Layer, kMpisim},
        {"mpisim.pingpong_4KiB_us", "us", "lower", M::Layer, kMpisim},
        {"mpisim.pingpong_64KiB_us", "us", "lower", M::Layer, kMpisim},
        {"mpisim.bw_1MiB_gbps", "GB/s", "higher", M::Layer, kMpisim},
        {"mpisim.allreduce_us", "us", "lower", M::Layer, kMpisim},
        {"mpisim.messages", "count", "lower", M::Layer, kMpisim},
        {"mpisim.bytes", "B", "lower", M::Layer, kMpisim},
        {"net.shm.pingpong_64B_us", "us", "lower", M::Layer, kShm},
        {"net.shm.pingpong_64KiB_us", "us", "lower", M::Layer, kShm},
        {"net.shm.bw_1MiB_gbps", "GB/s", "higher", M::Layer, kShm},
        {"net.tcp.pingpong_64B_us", "us", "lower", M::Layer, kTcp},
        {"net.tcp.pingpong_64KiB_us", "us", "lower", M::Layer, kTcp},
        {"net.tcp.bw_1MiB_gbps", "GB/s", "higher", M::Layer, kTcp},
        {"net.tcp.pingpong_rndv_us", "us", "lower", M::Layer, kTcp},
        {"net.frames_sent", "count", "lower", M::Layer, kShm},
        {"net.bytes_sent", "B", "lower", M::Layer, kShm},
        {"net.frames_per_msg", "ratio", "lower", M::Layer, kShm},
        {"net.rendezvous", "count", "lower", M::Layer, kShm},
        {"tampi.bound_pingpong_64B_us", "us", "lower", M::Layer, "tampi.wall_s on faces_shm"},
        {"tampi.pending_pingpong_64B_us", "us", "lower", M::Layer,
         "tampi.wall_s on faces_shm (poll cost with 64 requests pending)"},
        {"core.mpi.comm_s", "s", "lower", M::Layer, "mpi.wall_s on the same workload"},
        {"core.mpi.stencil_s", "s", "lower", M::Layer, "mpi.wall_s on the same workload"},
        {"core.forkjoin.comm_s", "s", "lower", M::Layer, "forkjoin.wall_s on the same workload"},
        {"core.forkjoin.stencil_s", "s", "lower", M::Layer,
         "forkjoin.wall_s on the same workload"},
        {"core.checksum_s", "s", "lower", M::Layer, "mpi.wall_s on the same workload"},
        {"trace.overhead_frac", "ratio", "lower", M::Layer,
         "none: median traced/untraced - 1 over interleaved TAMPI+OSS pairs; reported, not gated"},
        {"resilience.serialize_mbps", "MB/s", "higher", M::Layer, kServe},
        {"resilience.restore_mbps", "MB/s", "higher", M::Layer, kServe},
        {"serve.service_p50_ms", "ms", "lower", M::Layer, kServe},
        {"serve.queue_wait_p50_ms", "ms", "lower", M::Layer, kServe},
        {"serve.latency_p50_ms", "ms", "lower", M::Layer,
         "open-loop latency at half capacity on serve_mix (too noisy to gate)"},
        {"serve.latency_p95_ms", "ms", "lower", M::Layer,
         "open-loop latency at half capacity on serve_mix (too noisy to gate)"},
        {"serve.suspends_per_job", "ratio", "lower", M::Layer, kServe},
        {"serve.peak_queue", "count", "lower", M::Layer, kServe},
        {"serve.codec_ns", "ns", "lower", M::Layer, kServe},
        {"serve.gen_lag_max_ms", "ms", "lower", M::Layer,
         "none: lateness of the open-loop generator (validity of the latency figures)"},
        {"failed_frac", "ratio", "lower", M::Layer, "none: failed over attempted operations"},
    };
    // Busy time by phase kind from the program's tracer, for the MPI-only
    // and TAMPI+OSS runs. recv, comm_wait and net_progress are waiting:
    // the tracer counts blocking waits as busy.
    static std::vector<std::string> names;  // storage for the generated names
    names.reserve(64);
    for (const char* v : {"mpi", "tampi"}) {
        const std::string base = std::string("trace.") + v + ".";
        for (int k = 0; k <= static_cast<int>(dfamr::amr::PhaseKind::NetProgress); ++k) {
            names.push_back(base + dfamr::amr::to_string(static_cast<dfamr::amr::PhaseKind>(k)) +
                            "_ms");
        }
        names.push_back(base + "utilization");
        names.push_back(base + "idle_gap_ms");
    }
    for (const std::string& n : names) {
        const bool util = n.ends_with("utilization");
        r.push_back({n.c_str(), util ? "ratio" : "ms", util ? "higher" : "lower", M::Layer,
                     "breakdown of *.wall_s on the same workload (waiting kinds included)"});
    }
    static const char* kLayers[] = {"amr", "scenario", "tasking", "mpisim",  "net",
                                    "tampi", "resilience", "serve", "core"};
    static std::vector<std::string> self_names;
    for (const char* l : kLayers) self_names.push_back(std::string("self.") + l + "_ms");
    for (const std::string& n : self_names) {
        r.push_back({n.c_str(), "ms", "lower", M::Layer,
                     "none: benchmark time spent inside the layer's calls (span self time)"});
    }
    return r;
}

struct Provenance {
    unsigned nproc = std::thread::hardware_concurrency();
    long llc_bytes = perfbench::llc_bytes();
    std::string compiler = __VERSION__;
    std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef DFAMR_VERIFY
    bool verify = true;
#else
    bool verify = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    bool sanitize = true;
#else
    bool sanitize = false;
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    bool optimized = true;
#else
    bool optimized = false;
#endif

    bool timeable() const {
        return optimized && !verify && !sanitize &&
               (build_type == "Release" || build_type == "RelWithDebInfo");
    }
    std::string json() const {
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"nproc\": %u, \"llc_bytes\": %ld, \"compiler\": \"%s\", "
                      "\"build_type\": \"%s\", \"DFAMR_VERIFY\": %s, \"DFAMR_SANITIZE\": %s, "
                      "\"numbers\": \"measured\"}",
                      nproc, llc_bytes, compiler.c_str(), build_type.c_str(),
                      verify ? "true" : "false", sanitize ? "true" : "false");
        return buf;
    }
};

bool parse_args(int argc, char** argv, Args& a, bool& list) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--list") {
            list = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--spans") {
            a.spans_path = v;
        } else {
            return false;
        }
    }
    return list || (!a.workload.empty() && a.seconds > 0);
}

void write_spans(const std::string& path, const Args& args, const Provenance& prov) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write span file %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"provenance\": %s}\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 prov.json().c_str());
    for (const SpanRecord& s : spans_snapshot()) {
        std::fprintf(f,
                     "{\"id\": %llu, \"parent\": %llu, \"group\": %llu, \"layer\": \"%s\", "
                     "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.group), s.layer.c_str(), s.name.c_str(),
                     static_cast<long long>(s.t0_ns), static_cast<long long>(s.t1_ns));
    }
    std::fclose(f);
}

/// Every digit of the measured value; counts print as integers. A value
/// that is not finite prints as null, which run.py rejects.
std::string format_value(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return buf;
}

int run(const Args& args) {
    const Provenance prov;
    std::printf("provenance: %s\n", prov.json().c_str());
    if (!prov.timeable()) {
        std::fprintf(stderr,
                     "perfbench: refusing to time an unoptimised or instrumented build "
                     "(need Release/RelWithDebInfo, no DFAMR_VERIFY, no sanitizer)\n");
        return 2;
    }
    const bool serve = args.workload == "serve_mix";
    Problem problem;
    if (!make_problem(args.workload, args.seed, problem)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s' (sphere_refine | spheres_bulk | "
                             "faces_shm | serve_mix)\n", args.workload.c_str());
        return 2;
    }

    Report report;
    const Mode mode = args.trace ? Mode::Layer : Mode::EndToEnd;
    if (!args.trace) {
        if (serve) {
            measure_serve(problem, args, report);
        } else {
            measure_problem(problem, args, report);
        }
    } else {
        spans_enable(true);
        trace_problem(problem, args, report);
        trace_serve(args, serve, report);
        measure_layers(serve ? problem.hybrid : problem.tampi, args.seed, report);
        // "bench" spans wrap the benchmark's own work (the triad ceiling).
        std::printf("per-layer self time (ms):");
        for (const auto& [layer, ms] : spans_self_ms()) {
            std::printf(" %s=%.1f", layer.c_str(), ms);
            if (layer != "bench") report.set("self." + layer + "_ms", ms);
        }
        std::printf("\n");
        report.set("failed_frac", static_cast<double>(report.failed()) /
                                      static_cast<double>(std::max<std::int64_t>(1, report.attempted())));
        if (!args.spans_path.empty()) {
            write_spans(args.spans_path, args, prov);
            std::printf("spans: %s\n", args.spans_path.c_str());
        }
    }

    // Every metric of the mode, and nothing else.
    std::string metrics;
    std::size_t printed = 0;
    for (const MetricDef& m : metric_registry()) {
        if (m.mode != mode) continue;
        const auto it = report.values().find(m.name);
        if (it == report.values().end()) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n", m.name);
            return 3;
        }
        if (!metrics.empty()) metrics += ", ";
        metrics += std::string("\"") + m.name + "\": {\"value\": " + format_value(it->second) +
                   ", \"unit\": \"" + m.unit + "\"}";
        ++printed;
    }
    if (printed != report.values().size()) {
        std::fprintf(stderr, "perfbench: a measured metric is not in the registry\n");
        return 3;
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                report.correct() ? "true" : "false", static_cast<long long>(report.attempted()),
                static_cast<long long>(report.failed()), metrics.c_str());
    return report.correct() ? 0 : 1;
}

}  // namespace

const std::vector<MetricDef>& metric_registry() {
    static const std::vector<MetricDef> registry = build_registry();
    return registry;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    bool list = false;
    if (!parse_args(argc, argv, args, list)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                     "[--spans PATH] | --list\n");
        return 2;
    }
    if (list) {
        for (const MetricDef& m : metric_registry()) {
            std::printf("{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                        "\"mode\": \"%s\", \"moves\": \"%s\"}\n",
                        m.name, m.unit, m.better,
                        m.mode == Mode::EndToEnd ? "end_to_end" : "per_layer", m.moves);
        }
        return 0;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
