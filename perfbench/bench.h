/**
 * @file
 * Shared pieces of the end-to-end benchmark: arguments, the
 * benchmark's own model of every object's content, wall-clock spans
 * around the public calls it makes, counter deltas from the program's
 * MetricsRegistry, and the report every workload fills in.
 *
 * The benchmark touches the program only through its public API
 * (Universe, ObjectHandle, Runtime, MetricsRegistry and the
 * erasure/crypto classes); nothing here reaches into a tier.
 */

#ifndef OCEANSTORE_PERFBENCH_BENCH_H
#define OCEANSTORE_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/object_handle.h"
#include "core/universe.h"
#include "obs/metrics.h"

namespace perfbench {

using oceanstore::Bytes;

/** Wall-clock seconds on the steady clock. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Which model check a self-check run perturbs (never the program). */
enum class Perturb
{
    None,
    Content, //!< one byte of one expected block
    Version, //!< one object's expected final version
    Latency, //!< the modelled read-latency floor of one read
    Restore, //!< one byte of one expected archived state
};

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 5;
    bool trace = false;
    Perturb perturb = Perturb::None;

    /**
     * A fixed operation count: @p perSecond per second of --seconds.
     * Counts, not a timer, bound every run, so what a run does depends
     * only on the seed and --seconds.
     */
    std::size_t
    scaled(std::size_t perSecond) const
    {
        return perSecond * seconds;
    }
};

/** SplitMix64: the benchmark's only source of randomness. */
class Rand
{
  public:
    explicit Rand(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return (next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t s_;
};

/** Plaintext of one block, a pure function of its content id. */
Bytes blockContent(std::uint64_t id, std::size_t size);

/**
 * The benchmark's independent model of one object: the content id of
 * every block at every committed version.  Version 0 is the empty
 * object; version 1 is the initial content.
 */
struct ObjectModel
{
    std::size_t blockSize = 0;
    std::vector<std::vector<std::uint64_t>> versions{{}};

    std::uint64_t current() const { return versions.size() - 1; }

    /** Concatenated plaintext the object must hold at version @p v. */
    Bytes expected(std::uint64_t v) const;

    /** Record a committed replace of block @p pos by content @p id. */
    void
    replace(std::size_t pos, std::uint64_t id)
    {
        std::vector<std::uint64_t> next = versions.back();
        next[pos] = id;
        versions.push_back(std::move(next));
    }
};

/**
 * The update that gives a new object its version-1 content: every
 * block appended under a CompareVersion{0} guard.  Built from explicit
 * clauses so no search index is attached; indexing random binary
 * blocks as words would make the index several times the data.
 */
oceanstore::Update initialContent(const oceanstore::ObjectHandle &h,
                                  const ObjectModel &model,
                                  std::uint64_t client);

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double percentile(std::vector<double> v, double p);

/**
 * Wall-clock spans the benchmark records around its own calls into
 * the program.  One log per client thread; disabled logs record
 * nothing, so the untraced run pays only a branch.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t traceId;
        std::uint32_t id;
        std::uint32_t parent;
        double start;
        double end;
        double bytes; //!< payload the call moved, 0 when none
    };

    explicit SpanLog(bool enabled, std::uint32_t thread = 0)
        : enabled_(enabled), thread_(thread)
    {
    }

    /** Start a span; returns its id (0 when disabled). */
    std::uint32_t
    begin(const char *name, std::uint64_t trace_id,
          std::uint32_t parent = 0)
    {
        if (!enabled_)
            return 0;
        std::uint32_t id = (thread_ << 24) |
                           static_cast<std::uint32_t>(spans_.size() + 1);
        spans_.push_back({name, trace_id, id, parent, wallNow(), 0.0, 0});
        return id;
    }

    void
    end(std::uint32_t id, double bytes = 0.0)
    {
        if (!enabled_ || id == 0)
            return;
        Span &s = spans_[(id & 0xffffffu) - 1];
        s.end = wallNow();
        s.bytes = bytes;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::uint32_t thread_;
    std::vector<Span> spans_;
};

/** Per-name totals over a set of span logs. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double seconds = 0.0;
    double bytes = 0.0;

    double meanSeconds() const { return count ? seconds / count : 0.0; }
    double
    mbps() const
    {
        return seconds > 0.0 ? bytes / seconds / 1e6 : 0.0;
    }
};

std::map<std::string, SpanTotals>
totalSpans(const std::deque<SpanLog> &logs);

/**
 * Counter/histogram deltas of the program's MetricsRegistry, summed
 * over every begin()/end() window.
 */
class CounterDelta
{
  public:
    void begin();
    void end();

    double counter(const std::string &name) const;
    /** Mean of a histogram's observations in the windows. */
    double histMean(const std::string &name) const;

  private:
    oceanstore::MetricsSnapshot before_;
    std::map<std::string, double> counters_;
    std::map<std::string, std::pair<double, double>> hists_; //!< sum, n
};

/** What one workload run hands back to main(). */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    /** name -> (value, unit), end-to-end and per-layer. */
    std::map<std::string, std::pair<double, std::string>> endToEnd;
    std::map<std::string, std::pair<double, std::string>> perLayer;
    std::deque<SpanLog> logs;          //!< one per client thread
    std::vector<std::string> problems; //!< first few check failures
    bool trace = false;

    /** A new span log, recording only in a traced run. */
    SpanLog &
    newLog()
    {
        return logs.emplace_back(
            trace, static_cast<std::uint32_t>(logs.size()));
    }

    void
    fail(const std::string &why)
    {
        failed++;
        correct = false;
        if (problems.size() < 8)
            problems.push_back(why);
    }
};

/** Layer metrics computed the same way by every workload. */
void dataPlaneMetrics(Report &rep, const std::vector<Bytes> &states,
                      unsigned k, unsigned n, std::uint64_t seed);

/**
 * The bases every per-layer ratio is taken over, gathered by a
 * workload over its measured region.  Fields a workload has no use
 * for stay 0, and so do the metrics built on them.
 */
struct LayerInputs
{
    CounterDelta counters;         //!< registry deltas, measured region
    double ops = 0;                //!< operations completed
    double commits = 0;            //!< writes acknowledged as committed
    double userBytes = 0;          //!< plaintext bytes committed
    double measuredWall = 0;       //!< seconds in the measured region
    double wireMessages = 0;       //!< Runtime::totalMessages delta
    double wireBytes = 0;          //!< Runtime::totalBytes delta
    double workerUtilization = 0;  //!< RuntimeStats at region end
    double staleReads = 0;         //!< reads older than the newest commit
    double restores = 0;           //!< restoreSync calls
    double restoredBytes = 0;      //!< archived-state bytes restored
    double restoreWall = 0;        //!< seconds in restoreSync
    double archivedBytes = 0;      //!< states archived by measured commits
    double storedBytes = 0;        //!< all disk images after ingest
    double restarts = 0;           //!< servers crashed and restarted
    double replayedBytes = 0;      //!< disk-image bytes replayed
    double recoveryWall = 0;       //!< seconds to crash+restart all
    double recoveryRecords = 0;    //!< recovery.records over restarts
    double bootWall = 0;           //!< Universe construction
    double populateWall = 0;       //!< users, objects, initial content
};

/** Fill every per-layer metric from @p in and the span logs. */
void layerMetrics(Report &rep, const LayerInputs &in);

/**
 * Check that decrypting @p blocks gives the model's content at
 * @p version (a stale version is fine, wrong bytes are not).  With
 * @p perturb the expected bytes get one byte flipped first.
 * @return true when the bytes match.
 */
bool checkContent(const oceanstore::ObjectHandle &h,
                  const ObjectModel &model, std::uint64_t version,
                  const std::vector<Bytes> &blocks, bool perturb,
                  SpanLog &log, Report &rep);

/**
 * Each object's final version must be 1 plus the writes to it
 * acknowledged as committed, and its final state must decrypt to the
 * model.  @return the final serialized states (data-plane inputs).
 */
std::vector<Bytes>
checkFinal(oceanstore::Universe &u,
           const std::vector<oceanstore::ObjectHandle> &handles,
           const std::vector<ObjectModel> &models,
           const std::vector<std::uint64_t> &committed, const Args &args,
           SpanLog &log, Report &rep);

/** Ratio helper: 0 when the base is 0. */
inline double
per(double num, double base)
{
    return base > 0.0 ? num / base : 0.0;
}

/** The three workloads; each fills @p rep.  @p t0 is process start. */
void runThreadedRw(const Args &args, double t0, Report &rep);
void runArchiveIngest(const Args &args, double t0, Report &rep);
void runZipfMix(const Args &args, double t0, Report &rep);

} // namespace perfbench

#endif // OCEANSTORE_PERFBENCH_BENCH_H
