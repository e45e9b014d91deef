#include "bench.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "crypto/sha1.h"
#include "erasure/reed_solomon.h"

namespace perfbench {

Bytes
blockContent(std::uint64_t id, std::size_t size)
{
    Bytes out(size);
    Rand r(id);
    for (std::size_t i = 0; i < size; i += 8) {
        std::uint64_t w = r.next();
        for (std::size_t j = 0; j < 8 && i + j < size; j++)
            out[i + j] = static_cast<std::uint8_t>(w >> (8 * j));
    }
    return out;
}

Bytes
ObjectModel::expected(std::uint64_t v) const
{
    Bytes out;
    for (std::uint64_t id : versions.at(v)) {
        Bytes b = blockContent(id, blockSize);
        out.insert(out.end(), b.begin(), b.end());
    }
    return out;
}

oceanstore::Update
initialContent(const oceanstore::ObjectHandle &h, const ObjectModel &model,
               std::uint64_t client)
{
    oceanstore::UpdateClause clause;
    clause.predicates.push_back(oceanstore::CompareVersion{0});
    const auto &ids = model.versions.at(1);
    for (std::size_t i = 0; i < ids.size(); i++)
        clause.actions.push_back(oceanstore::AppendBlock{
            h.encryptBlock(i, blockContent(ids[i], model.blockSize))});
    return h.makeUpdate({std::move(clause)},
                        oceanstore::Timestamp{1, client});
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[rank == 0 ? 0 : rank - 1];
}

std::map<std::string, SpanTotals>
totalSpans(const std::deque<SpanLog> &logs)
{
    std::map<std::string, SpanTotals> out;
    for (const SpanLog &log : logs) {
        for (const SpanLog::Span &s : log.spans()) {
            SpanTotals &t = out[s.name];
            t.count++;
            t.seconds += s.end - s.start;
            t.bytes += s.bytes;
        }
    }
    return out;
}

void
CounterDelta::begin()
{
    before_ = oceanstore::MetricsRegistry::global().snapshot();
}

void
CounterDelta::end()
{
    oceanstore::MetricsSnapshot d =
        oceanstore::MetricsRegistry::global().snapshot().deltaFrom(before_);
    for (const auto &[name, v] : d.counters)
        counters_[name] += static_cast<double>(v);
    for (const auto &[name, h] : d.histograms) {
        hists_[name].first += h.sum;
        hists_[name].second += static_cast<double>(h.total);
    }
}

double
CounterDelta::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

double
CounterDelta::histMean(const std::string &name) const
{
    auto it = hists_.find(name);
    return it == hists_.end() ? 0.0 : per(it->second.first,
                                          it->second.second);
}

void
dataPlaneMetrics(Report &rep, const std::vector<Bytes> &states,
                 unsigned k, unsigned n, std::uint64_t seed)
{
    // A fixed amount of work (about 32 MB per kernel) over the states
    // the run itself produced, so the rates do not depend on how long
    // the run was.
    std::size_t total = 0;
    for (const Bytes &s : states)
        total += s.size();
    std::size_t passes =
        total == 0 ? 0 : std::max<std::size_t>(1, (32u << 20) / total);

    // Hashes must match across passes, which also keeps the work live.
    std::vector<oceanstore::Sha1Digest> digests;
    for (const Bytes &s : states)
        digests.push_back(oceanstore::Sha1::hash(s));
    std::size_t bad = 0;
    double t = wallNow();
    for (std::size_t p = 0; p < passes; p++)
        for (std::size_t i = 0; i < states.size(); i++)
            bad += oceanstore::Sha1::hash(states[i]) != digests[i];
    double sha1_s = wallNow() - t;
    if (bad)
        rep.fail("sha1: a state hashed differently across passes");

    oceanstore::ReedSolomonCode rs(k, n);
    std::vector<std::vector<Bytes>> coded;
    coded.reserve(states.size());
    t = wallNow();
    for (std::size_t p = 0; p < passes; p++) {
        coded.clear();
        for (const Bytes &s : states)
            coded.push_back(rs.encode(s));
    }
    double enc_s = wallNow() - t;

    // Decode each state from a seeded choice of k of the n fragments,
    // which almost always includes parity, so the decoder inverts.
    Rand r(seed ^ 0xdec0deull);
    std::vector<std::vector<std::optional<Bytes>>> subsets;
    for (const auto &frags : coded) {
        std::vector<std::optional<Bytes>> keep(frags.size());
        std::vector<std::size_t> order(frags.size());
        for (std::size_t i = 0; i < order.size(); i++)
            order[i] = i;
        for (std::size_t i = order.size() - 1; i > 0; i--)
            std::swap(order[i], order[r.below(i + 1)]);
        for (unsigned i = 0; i < k; i++)
            keep[order[i]] = frags[order[i]];
        subsets.push_back(std::move(keep));
    }
    bad = 0;
    t = wallNow();
    for (std::size_t p = 0; p < passes; p++)
        for (std::size_t i = 0; i < states.size(); i++) {
            auto back = rs.decode(subsets[i], states[i].size());
            if (p == 0 && (!back || *back != states[i]))
                bad++;
        }
    double dec_s = wallNow() - t;
    if (bad)
        rep.fail("erasure: " + std::to_string(bad) +
                 " states did not decode to themselves");

    double mb = static_cast<double>(total * passes) / 1e6;
    rep.perLayer["crypto.sha1_MBps"] = {per(mb, sha1_s), "MB/s"};
    rep.perLayer["erasure.encode_MBps"] = {per(mb, enc_s), "MB/s"};
    rep.perLayer["erasure.decode_MBps"] = {per(mb, dec_s), "MB/s"};
}

void
layerMetrics(Report &rep, const LayerInputs &in)
{
    const CounterDelta &c = in.counters;
    auto spans = totalSpans(rep.logs);
    auto &m = rep.perLayer;
    double reads = c.counter("core.reads");

    m["runtime.task_delay_mean_ms"] = {
        c.histMean("runtime.task_delay") * 1e3, "ms"};
    m["runtime.timers_fired_per_op"] = {
        per(c.counter("runtime.timers_fired"), in.ops), "1/op"};
    m["runtime.tasks_per_op"] = {per(c.counter("runtime.tasks"), in.ops),
                                 "1/op"};
    m["runtime.worker_utilization"] = {in.workerUtilization, "frac"};
    m["runtime.frame_bytes_per_op"] = {
        per(c.counter("runtime.frame_bytes"), in.ops), "B/op"};

    m["consistency.msgs_per_commit"] = {per(in.wireMessages, in.commits),
                                        "msg/commit"};
    m["consistency.bytes_per_commit"] = {per(in.wireBytes, in.commits),
                                         "B/commit"};
    m["consistency.sec_pushes_per_commit"] = {
        per(c.counter("sec.pushes"), in.commits), "1/commit"};
    m["pbft.retries"] = {c.counter("pbft.client_retries"), "count"};
    m["consistency.stale_reads"] = {in.staleReads, "count"};

    m["bloom.hit_ratio"] = {per(c.counter("core.read_bloom_hits"), reads),
                            "frac"};
    m["bloom.query_hops_mean"] = {c.histMean("bloom.query_hops"),
                                  "hops"};
    m["plaxton.lookups_per_read"] = {
        per(c.counter("plaxton.lookups"), reads), "1/read"};
    m["plaxton.lookup_hops_mean"] = {c.histMean("plaxton.lookup_hops"),
                                     "hops"};
    m["core.read_call_us"] = {spans["read"].meanSeconds() * 1e6, "us"};

    double events = c.counter("sim.events_fired");
    m["sim.events_per_op"] = {per(events, in.ops), "1/op"};
    m["sim.events_per_s"] = {per(events, in.measuredWall), "1/s"};
    m["sim.run_loop_s"] = {spans["advance"].seconds, "s"};

    m["crypto.encrypt_sign_MBps"] = {spans["makeReplaceUpdate"].mbps(),
                                     "MB/s"};
    m["crypto.decrypt_MBps"] = {spans["decryptContent"].mbps(), "MB/s"};

    m["archive.bytes_per_commit"] = {per(in.archivedBytes, in.commits),
                                     "B/commit"};
    m["archive.fragments_stored_per_commit"] = {
        per(c.counter("archive.fragments_stored"), in.commits),
        "1/commit"};
    m["archive.fragment_requests_per_restore"] = {
        per(c.counter("archive.fragment_requests"), in.restores),
        "1/restore"};
    m["archive.commit_wall_ms"] = {
        spans["writeSync"].meanSeconds() * 1e3, "ms"};
    m["archive.restore_MBps"] = {
        per(in.restoredBytes / 1e6, in.restoreWall), "MB/s"};

    m["storage.bytes_written_per_user_byte"] = {
        per(c.counter("storage.bytes_written"), in.userBytes), "B/B"};
    m["storage.syncs_per_commit"] = {
        per(c.counter("storage.syncs"), in.commits), "1/commit"};
    m["storage.stored_bytes_per_user_byte"] = {
        per(in.storedBytes, in.userBytes), "B/B"};
    m["storage.replay_MBps"] = {
        per(in.replayedBytes / 1e6, in.recoveryWall), "MB/s"};
    m["storage.recovery_s"] = {in.recoveryWall, "s"};
    m["recovery.records_per_restart"] = {
        per(in.recoveryRecords, in.restarts), "1/restart"};

    m["core.boot_s"] = {in.bootWall, "s"};
    m["core.populate_s"] = {in.populateWall, "s"};
}

bool
checkContent(const oceanstore::ObjectHandle &h, const ObjectModel &model,
             std::uint64_t version, const std::vector<Bytes> &blocks,
             bool perturb, SpanLog &log, Report &rep)
{
    if (version > model.current()) {
        rep.fail("read returned version " + std::to_string(version) +
                 " of " + h.name() + ", newest committed is " +
                 std::to_string(model.current()));
        return false;
    }
    std::uint32_t s = log.begin("decryptContent", 0);
    Bytes got = h.decryptContent(blocks);
    log.end(s, static_cast<double>(got.size()));
    Bytes want = model.expected(version);
    if (perturb && !want.empty())
        want[want.size() / 2] ^= 0x01;
    if (got != want) {
        rep.fail("content of " + h.name() + " at version " +
                 std::to_string(version) + " differs from the model");
        return false;
    }
    return true;
}

std::vector<Bytes>
checkFinal(oceanstore::Universe &u,
           const std::vector<oceanstore::ObjectHandle> &handles,
           const std::vector<ObjectModel> &models,
           const std::vector<std::uint64_t> &committed, const Args &args,
           SpanLog &log, Report &rep)
{
    std::vector<Bytes> states;
    for (std::size_t i = 0; i < handles.size(); i++) {
        const oceanstore::Guid &g = handles[i].guid();
        std::uint64_t final_version = 0;
        for (const auto &rec : u.historyOf(g))
            if (rec.committed && rec.version > final_version)
                final_version = rec.version;
        std::uint64_t want = 1 + committed[i];
        if (args.perturb == Perturb::Version && i == 0)
            want++;
        if (final_version != want) {
            rep.fail(handles[i].name() + " ends at version " +
                     std::to_string(final_version) + ", expected " +
                     std::to_string(want));
            continue;
        }
        auto state = u.readVersion(g, final_version);
        if (!state) {
            rep.fail("readVersion lost " + handles[i].name());
            continue;
        }
        checkContent(handles[i], models[i], final_version,
                     state->logicalContent(), false, log, rep);
        states.push_back(state->serializeState());
    }
    return states;
}

} // namespace perfbench
