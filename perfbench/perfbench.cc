/**
 * @file
 * End-to-end benchmark driver: runs one named workload with a seed,
 * checks every output against the benchmark's own model, and prints
 * one JSON line {correct, attempted, failed, metrics}.  With
 * --trace 1 the metrics are the per-layer ones and the spans are
 * written to .bench_trace/<workload>-<seed>.spans.jsonl under the
 * working directory, which must exist.
 *
 *   perfbench --workload threaded_rw|archive_ingest|zipf_mix
 *             --seed N --seconds S --trace 0|1
 *             [--perturb content|version|latency|restore]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 "
                 "[--perturb content|version|latency|restore]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = static_cast<unsigned>(std::atoi(v.c_str()));
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--perturb") {
            if (v == "content")
                a.perturb = Perturb::Content;
            else if (v == "version")
                a.perturb = Perturb::Version;
            else if (v == "latency")
                a.perturb = Perturb::Latency;
            else if (v == "restore")
                a.perturb = Perturb::Restore;
            else
                usage("unknown --perturb");
        } else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.seconds == 0)
        usage("--seconds must be at least 1");
    return a;
}

void
writeSpans(const Args &args, const Report &rep)
{
    std::string path = ".bench_trace/" + args.workload + "-" +
                       std::to_string(args.seed) + ".spans.jsonl";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    char line[256];
    for (const SpanLog &log : rep.logs)
        for (const SpanLog::Span &s : log.spans()) {
            std::snprintf(line, sizeof line,
                          "{\"name\":\"%s\",\"trace\":%llu,\"id\":%u,"
                          "\"parent\":%u,\"start\":%.9f,\"end\":%.9f,"
                          "\"bytes\":%.0f}\n",
                          s.name,
                          static_cast<unsigned long long>(s.traceId),
                          s.id, s.parent, s.start, s.end, s.bytes);
            out << line;
        }
}

} // namespace

int
main(int argc, char **argv)
{
    double t0 = wallNow();
    Args args = parseArgs(argc, argv);

    Report rep;
    rep.trace = args.trace;
    if (args.workload == "threaded_rw")
        runThreadedRw(args, t0, rep);
    else if (args.workload == "archive_ingest")
        runArchiveIngest(args, t0, rep);
    else if (args.workload == "zipf_mix")
        runZipfMix(args, t0, rep);
    else
        usage(("unknown workload " + args.workload).c_str());

    for (const std::string &p : rep.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    if (args.trace)
        writeSpans(args, rep);

    const auto &metrics = args.trace ? rep.perLayer : rep.endToEnd;
    std::string json = "{\"correct\": ";
    json += rep.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    bool first = true;
    char num[64];
    for (const auto &[name, vu] : metrics) {
        std::snprintf(num, sizeof num, "%.17g", vu.first);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
                num + ", \"unit\": \"" + vu.second + "\"}";
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
