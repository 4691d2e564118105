/**
 * @file
 * Digest pins over the exported documents of all three run paths: a
 * full run over the trace (runOnce), a replay of its recorded miss
 * stream (replayOnce of recordMissTrace) and a sampled run of its
 * phase plan (runSampled). Five programs are run under three systems:
 * the paper's 10 streams; a full system (unit filter, czone 18, victim
 * buffer 8, shuffled pages, 256 KB L2, bus 4); and a conventional one
 * (no streams, 256 KB L2, victim buffer 4). A synthetic stream with
 * software prefetches covers that record kind for run and replay.
 *
 * Every document is hashed (FNV-1a, 64 bits) and compared with the
 * digest produced when these pins were taken. The other differential
 * batteries compare paths that share one reporting routine, so a
 * change that moved every path's report the same way would pass them;
 * these pins catch it. One field is left out: a sampled run's victim
 * hit rate, which the sampled-fidelity tests check against its own
 * counts, is zeroed before hashing when the system has a victim
 * buffer. A mismatch prints the label and the new digest. The pins
 * must never be edited to follow a change: a moved digest is a
 * changed result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sampled_run.hh"
#include "trace/materialized_trace.hh"
#include "trace/phase_profile.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 500000;

const char *const kPrograms[] = {"mgrid", "appsp", "trfd", "cgm", "adm"};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The runMetrics document of @p out, with victim.hit_rate_pct set
 *  to 0 when @p zero_victim_rate. */
std::string
document(const RunOutput &out, bool zero_victim_rate)
{
    const MetricsRegistry full = runMetrics(out);
    MetricsRegistry doc;
    for (const MetricsSection &section : full.sections()) {
        MetricsSection &copy = doc.section(section.name());
        for (const auto &[field, value] : section.fields()) {
            if (zero_victim_rate && section.name() == "victim" &&
                field == "hit_rate_pct") {
                copy.add(field, 0.0);
                continue;
            }
            switch (value.kind()) {
              case MetricValue::Kind::UINT:
                copy.add(field, value.uintValue());
                break;
              case MetricValue::Kind::REAL:
                copy.add(field, value.realValue());
                break;
              case MetricValue::Kind::TEXT:
                copy.add(field, value.textValue());
                break;
            }
        }
    }
    std::ostringstream json;
    doc.writeJson(json);
    return json.str();
}

struct System
{
    std::string label;
    MemorySystemConfig config;
};

std::vector<System>
systems()
{
    MemorySystemConfig full = paperSystemConfig(
        10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);
    full.victimBufferEntries = 8;
    full.translation = TranslationMode::SHUFFLED;
    full.useL2 = true;
    full.l2.sizeBytes = 256 * 1024;
    full.busCyclesPerBlock = 4;

    MemorySystemConfig conventional = paperSystemConfig(10);
    conventional.useStreams = false;
    conventional.useL2 = true;
    conventional.l2.sizeBytes = 256 * 1024;
    conventional.victimBufferEntries = 4;

    return {{"paper10", paperSystemConfig(10)},
            {"full", full},
            {"conventional", conventional}};
}

/** Digests of each path's document, by program/system/path. */
const std::map<std::string, std::uint64_t> kPins = {
    {"mgrid/paper10/run", 0xdd91c0c670e47a19ULL},
    {"mgrid/paper10/replay", 0xdd91c0c670e47a19ULL},
    {"mgrid/paper10/sampled", 0xa5d6d20569c04f5cULL},
    {"mgrid/full/run", 0x885016f599932389ULL},
    {"mgrid/full/replay", 0x885016f599932389ULL},
    {"mgrid/full/sampled", 0xf6c6228565f5de9aULL},
    {"mgrid/conventional/run", 0x46fe1354e522ccaeULL},
    {"mgrid/conventional/replay", 0x46fe1354e522ccaeULL},
    {"mgrid/conventional/sampled", 0xe5ce494bccc5bd8eULL},
    {"appsp/paper10/run", 0xe2ce97430b9e0d0dULL},
    {"appsp/paper10/replay", 0xe2ce97430b9e0d0dULL},
    {"appsp/paper10/sampled", 0xd7a3431d6bf5adfdULL},
    {"appsp/full/run", 0x0e476b09a4b819b4ULL},
    {"appsp/full/replay", 0x0e476b09a4b819b4ULL},
    {"appsp/full/sampled", 0x3517b871da12335dULL},
    {"appsp/conventional/run", 0x25107502e84580b3ULL},
    {"appsp/conventional/replay", 0x25107502e84580b3ULL},
    {"appsp/conventional/sampled", 0x15e38d2dd0e336d9ULL},
    {"trfd/paper10/run", 0x20fe62d711768fd3ULL},
    {"trfd/paper10/replay", 0x20fe62d711768fd3ULL},
    {"trfd/paper10/sampled", 0x9e1bd2426c633052ULL},
    {"trfd/full/run", 0x36095b113f78eeb6ULL},
    {"trfd/full/replay", 0x36095b113f78eeb6ULL},
    {"trfd/full/sampled", 0x33c1a02429acfe99ULL},
    {"trfd/conventional/run", 0x353b0297bcc93149ULL},
    {"trfd/conventional/replay", 0x353b0297bcc93149ULL},
    {"trfd/conventional/sampled", 0xb670f8243d7796a8ULL},
    {"cgm/paper10/run", 0x1709b68ceb0e8440ULL},
    {"cgm/paper10/replay", 0x1709b68ceb0e8440ULL},
    {"cgm/paper10/sampled", 0xec74794cf0cc20ccULL},
    {"cgm/full/run", 0xb12874957be056daULL},
    {"cgm/full/replay", 0xb12874957be056daULL},
    {"cgm/full/sampled", 0x1cf99384a3bd462cULL},
    {"cgm/conventional/run", 0x00912713f0a1463aULL},
    {"cgm/conventional/replay", 0x00912713f0a1463aULL},
    {"cgm/conventional/sampled", 0x2862b4abdcbb2aabULL},
    {"adm/paper10/run", 0x7b1437aa24a4dcb1ULL},
    {"adm/paper10/replay", 0x7b1437aa24a4dcb1ULL},
    {"adm/paper10/sampled", 0x35edddbffd0275a7ULL},
    {"adm/full/run", 0x3de0ee684f87c357ULL},
    {"adm/full/replay", 0x3de0ee684f87c357ULL},
    {"adm/full/sampled", 0x02a4ac6b533cbe56ULL},
    {"adm/conventional/run", 0xd74961db9b5f7e93ULL},
    {"adm/conventional/replay", 0xd74961db9b5f7e93ULL},
    {"adm/conventional/sampled", 0xbc0d477df4876a9dULL},
    {"sw_prefetch/run", 0x997adc115165f112ULL},
    {"sw_prefetch/replay", 0x997adc115165f112ULL},
};

class Pins
{
  public:
    void
    check(const std::string &label, const std::string &doc)
    {
        std::uint64_t got = fnv1a(doc);
        ++checked_;
        auto it = kPins.find(label);
        if (it == kPins.end() || it->second != got) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                          static_cast<unsigned long long>(got));
            ADD_FAILURE() << "pin {\"" << label << "\", " << hex << "},";
        }
    }

    std::size_t checked() const { return checked_; }

  private:
    std::size_t checked_ = 0;
};

} // namespace

TEST(RunPins, RunReplayAndSampledDocumentsMatchPinnedDigests)
{
    Pins pins;
    for (const char *program : kPrograms) {
        auto workload = findBenchmark(program).makeWorkload();
        TruncatingSource limited(*workload, kRefs);
        auto trace = MaterializedTrace::fromSource(limited);
        const SamplingPlan plan = buildSamplingPlan(*trace);
        ASSERT_FALSE(plan.exact) << program;

        for (const System &s : systems()) {
            const std::string label =
                std::string(program) + "/" + s.label;
            SCOPED_TRACE(label);
            SharedTraceView run_view(trace);
            pins.check(label + "/run",
                       document(runOnce(run_view, s.config), false));

            SharedTraceView record_view(trace);
            const MissTrace miss =
                recordMissTrace(record_view, s.config);
            pins.check(label + "/replay",
                       document(replayOnce(miss, s.config), false));

            pins.check(label + "/sampled",
                       document(runSampled(trace, plan, s.config),
                                s.config.victimBufferEntries > 0));
        }
    }

    // PREFETCH references mixed with loads and stores: the synthetic
    // stream of the miss-trace test for the SW_PREFETCH record kind.
    std::vector<MemAccess> refs;
    for (std::uint64_t i = 0; i < 30000; ++i) {
        Addr a = (i * 40) % (1 << 20);
        refs.push_back(makeIfetch(0x100000 + (i % 4096) * 4));
        refs.push_back(makePrefetch(a + 64));
        refs.push_back(i % 3 == 0 ? makeStore(a) : makeLoad(a));
    }
    MemorySystemConfig config = paperSystemConfig(6);
    config.busCyclesPerBlock = 2;
    VectorSource run_src(refs);
    pins.check("sw_prefetch/run",
               document(runOnce(run_src, config), false));
    VectorSource record_src(refs);
    const MissTrace miss = recordMissTrace(record_src, config);
    pins.check("sw_prefetch/replay",
               document(replayOnce(miss, config), false));

    EXPECT_EQ(pins.checked(), kPins.size());
}
