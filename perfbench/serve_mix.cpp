// serve_mix: an in-process dfamr_serve server driven by serve::Client with
// an open-loop generator. Every Done job must reproduce the checksums of a
// solo run of its spec.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace ds = dfamr::serve;
namespace dc = dfamr::core;

namespace {

constexpr int kTenants = 4;
constexpr int kSeedsPerTemplate = 2;

/// The fixed mix: scenario x variant templates. The seed picks job seeds,
/// tenants and the submission order; it never changes how much work a
/// batch holds.
std::vector<ds::JobSpec> distinct_specs(std::uint64_t seed) {
    struct Template {
        const char* scenario;
        Variant variant;
        int ranks, workers;
    };
    const Template templates[] = {
        {"single_sphere", Variant::MpiOnly, 2, 1},
        {"single_sphere", Variant::TampiOss, 1, 2},
        {"four_spheres", Variant::ForkJoin, 1, 2},
        {"four_spheres", Variant::TampiOss, 1, 2},
        {"gaussian", Variant::MpiOnly, 2, 1},
        {"slotted_cylinder", Variant::TampiOss, 1, 2},
    };
    dfamr::Rng rng(seed ^ 0x5e57e5eedull);
    std::vector<ds::JobSpec> specs;
    for (const Template& t : templates) {
        for (int k = 0; k < kSeedsPerTemplate; ++k) {
            ds::JobSpec s;
            s.scenario = t.scenario;
            s.variant = t.variant;
            s.ranks = t.ranks;
            s.workers = t.workers;
            s.seed = rng.next_u64() % 1000000;
            s.tenant = "t" + std::to_string(rng.next_u64() % kTenants);
            specs.push_back(s);
        }
    }
    return specs;
}

/// `copies` of every distinct spec in a seeded order.
std::vector<int> batch_order(std::size_t distinct, int copies, dfamr::Rng& rng) {
    std::vector<int> order;
    for (int c = 0; c < copies; ++c) {
        for (std::size_t i = 0; i < distinct; ++i) order.push_back(static_cast<int>(i));
    }
    for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_u64() % i]);
    }
    return order;
}

struct Mix {
    std::vector<ds::JobSpec> specs;
    std::vector<std::vector<double>> reference;  // solo checksums per spec
};

/// The mix of `seed` with its solo references: one run of every distinct
/// spec through job_config, the configuration the server runs too.
Mix make_mix(std::uint64_t seed, Report& report) {
    Mix mix;
    mix.specs = distinct_specs(seed);
    dc::RunOptions opts;
    opts.ignore_launch_env = true;
    for (const ds::JobSpec& s : mix.specs) {
        spans_new_group();
        Span span("core", "run_variant.solo");
        const dc::RunResult r = dc::run_variant(ds::job_config(s), s.variant, nullptr, nullptr, opts);
        report.check(r.validation_ok && !r.checksums.empty(), "solo reference of " + s.scenario);
        mix.reference.push_back(r.checksums);
    }
    return mix;
}

struct Outcome {
    double lateness_s = 0;  // submit time minus due time
    ds::ClientJobResult result;
};

struct ServeRound {
    double setup_s = 0;       // server start until it answers, plus its stop
    double jobs_per_s = 0;    // verified jobs over first due time .. last terminal frame
    std::vector<Outcome> jobs;
    int peak_queue = 0;
};

ds::ServerOptions server_options() {
    ds::ServerOptions o;
    o.manager.pool_workers = 4;
    o.manager.max_inflight_cost = 4;  // the host's cores
    o.manager.max_queue = 1024;
    o.manager.slice_tsteps = 2;       // jobs suspend/resume through checkpoints
    return o;
}

/// One server lifetime: start, submit `order` open loop at `rate_per_s`
/// (0 = all due at once), wait for every job, stop. Jobs are timed from
/// their due time.
ServeRound serve_round(const Mix& mix, const std::vector<int>& order, double rate_per_s,
                       Report& report) {
    ServeRound round;
    malloc_trim(0);
    const std::int64_t t_start = now_ns();
    std::unique_ptr<ds::Server> server;
    std::unique_ptr<ds::Client> client;
    {
        Span span("serve", "server_start");
        server = std::make_unique<ds::Server>(server_options());
        client = std::make_unique<ds::Client>(dfamr::net::HostPort{"127.0.0.1", server->port()});
        client->stats();  // the server answers: ready to accept jobs
    }
    round.setup_s = seconds_since(t_start);

    std::vector<std::uint64_t> refs(order.size()), groups(order.size());
    round.jobs.resize(order.size());
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::int64_t due =
            t0 + (rate_per_s > 0 ? static_cast<std::int64_t>(1e9 * static_cast<double>(i) / rate_per_s) : 0);
        while (now_ns() < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::int64_t>(due - now_ns(), 1000000)));
        }
        round.jobs[i].lateness_s = seconds_since(due);
        groups[i] = spans_new_group();  // one span group per job
        Span span("serve", "submit");
        refs[i] = client->submit(mix.specs[static_cast<std::size_t>(order[i])]);
    }
    int verified = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        spans_join_group(groups[i]);
        Span span("serve", "wait");
        ds::ClientJobResult r = client->wait(refs[i]);
        const auto& ref = mix.reference[static_cast<std::size_t>(order[i])];
        const bool ok = r.accepted && r.done && r.checksums == ref;
        report.check(ok, "serve job " + std::to_string(i) + " (" +
                             mix.specs[static_cast<std::size_t>(order[i])].scenario +
                             ") matches its solo reference" + (r.error.empty() ? "" : ": " + r.error));
        verified += ok ? 1 : 0;
        round.jobs[i].result = std::move(r);
    }
    round.jobs_per_s = verified / seconds_since(t0);
    round.peak_queue = client->stats().peak_queue;

    const std::int64_t t_stop = now_ns();
    {
        Span span("serve", "server_stop");
        client->close();
        server->stop();
        client.reset();
        server.reset();
    }
    round.setup_s += seconds_since(t_stop);
    return round;
}

}  // namespace

void measure_serve(const Problem& p, const Args& args, Report& report) {
    constexpr int kCopies = 3;  // copies of each distinct spec in a saturation batch
    const Mix mix = make_mix(args.seed, report);
    dfamr::Rng rng(args.seed);
    serve_round(mix, batch_order(mix.specs.size(), kCopies, rng), 0, report);  // warm-up

    // Every round of the solo flux-kernel problem is followed by a
    // saturation batch: the whole batch due at once, on a fresh server, so
    // set-up is sampled every round.
    std::vector<double> throughput, setup;
    measure_problem(p, args, report, [&] {
        const ServeRound r = serve_round(mix, batch_order(mix.specs.size(), kCopies, rng), 0, report);
        throughput.push_back(r.jobs_per_s);
        setup.push_back(r.setup_s);
    });
    report.set("jobs_per_s", median(throughput));
    report.set("setup_s", median(setup));
    std::printf("serve_mix: saturation batches of %zu jobs\n", kCopies * mix.specs.size());
    print_samples("jobs_per_s", throughput);
    print_samples("setup_s", setup);
}

void trace_serve(const Args& args, bool full, Report& report) {
    const Mix mix = make_mix(args.seed, report);
    dfamr::Rng rng(args.seed);
    const int copies = full ? 6 : 2;
    // Capacity first, then an open loop at about half of it.
    const ServeRound sat = serve_round(mix, batch_order(mix.specs.size(), copies, rng), 0, report);
    const ServeRound light =
        serve_round(mix, batch_order(mix.specs.size(), copies, rng), 0.5 * sat.jobs_per_s, report);

    std::vector<double> service, queue_wait, latency;
    double suspends = 0, lag_max = 0;
    for (const Outcome& o : light.jobs) {
        service.push_back(1e3 * o.result.elapsed_s);
        queue_wait.push_back(1e3 * (o.result.latency_s - o.result.elapsed_s));
        latency.push_back(1e3 * (o.result.latency_s + o.lateness_s));  // from the due time
        suspends += o.result.suspends;
        lag_max = std::max(lag_max, 1e3 * o.lateness_s);
    }
    report.set("serve.service_p50_ms", median(service));
    report.set("serve.queue_wait_p50_ms", median(queue_wait));
    report.set("serve.latency_p50_ms", quantile(latency, 0.5));
    report.set("serve.latency_p95_ms", quantile(latency, 0.95));
    report.set("serve.suspends_per_job", suspends / static_cast<double>(light.jobs.size()));
    report.set("serve.peak_queue", sat.peak_queue);
    report.set("serve.gen_lag_max_ms", lag_max);

    // DFS1 codec round trip: a job spec and a Done payload.
    ds::JobDone done;
    done.checksums = mix.reference[0];
    std::vector<std::byte> buf;
    std::uint64_t sink = 0;
    {
        Span span("serve", "codec");
        report.set("serve.codec_ns", median_ns_per_op(5, 2000000, [&] {
            for (const ds::JobSpec& s : mix.specs) {
                ds::encode_job_spec(s, buf);
                sink += ds::decode_job_spec(buf.data(), buf.size()).seed;
                ds::encode_job_done(done, buf);
                sink += ds::decode_job_done(buf.data(), buf.size()).checksums.size();
            }
            return static_cast<std::int64_t>(mix.specs.size());
        }));
    }
    report.check(sink > 0, "codec round trip decoded its input");
    std::printf("serve: capacity %.1f jobs/s, open loop at %.1f/s: %zu jobs, p50 %.1f ms p95 %.1f ms\n",
                sat.jobs_per_s, 0.5 * sat.jobs_per_s, latency.size(), quantile(latency, 0.5),
                quantile(latency, 0.95));
}

}  // namespace perfbench
