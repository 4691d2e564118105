/**
 * @file
 * Digest pins over the stream engine's ablation axes. The paper's own
 * configurations are pinned bit-exactly elsewhere (replay/exact
 * identity, the golden sweep, the calibration pins); the design
 * choices the paper only mentions in passing — FIFO and RANDOM stream
 * replacement, Jouppi's associative lookup, partitioned I/D banks and
 * depths other than 2 — would otherwise be covered by small unit tests
 * alone.
 *
 * One recorded miss stream (mgrid, 200k references, the paper's front
 * end) is replayed under replacement {LRU, FIFO, RANDOM} x lookup
 * {head-only, associative} x depth {1, 2, 4, 8, 16} x partitioned
 * {no, yes}, plus the unit filter backed by czone or min-delta stride
 * detection at depth 2, plus two secondary levels with a bus (and an
 * L2). Every run's full runMetrics document is hashed (FNV-1a, 64
 * bits) and compared with the digest the engine produced when these
 * pins were taken. A mismatch prints the label and the new digest.
 * The pins must never be edited to follow a behaviour change of the
 * stream engine: a moved digest is a changed simulation result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "sim/experiment.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 200000;

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

struct Variant
{
    std::string label;
    MemorySystemConfig config;
};

/** Every configuration pinned below, in pin-table order. */
std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    const StreamReplacement repls[] = {StreamReplacement::LRU,
                                       StreamReplacement::FIFO,
                                       StreamReplacement::RANDOM};
    auto label = [](StreamReplacement r, bool assoc, std::uint32_t depth,
                    bool split) {
        return std::string(toString(r)) + (assoc ? "/assoc" : "/head") +
               "/d" + std::to_string(depth) +
               (split ? "/split" : "/unified");
    };
    for (StreamReplacement r : repls) {
        for (bool assoc : {false, true}) {
            for (std::uint32_t depth : {1u, 2u, 4u, 8u, 16u}) {
                for (bool split : {false, true}) {
                    MemorySystemConfig c = paperSystemConfig(10);
                    c.streams.replacement = r;
                    c.streams.associativeLookup = assoc;
                    c.streams.depth = depth;
                    c.streams.partitioned = split;
                    out.push_back({label(r, assoc, depth, split), c});
                }
            }
        }
    }
    for (StrideDetection sd :
         {StrideDetection::CZONE, StrideDetection::MIN_DELTA}) {
        for (StreamReplacement r : repls) {
            for (bool assoc : {false, true}) {
                for (bool split : {false, true}) {
                    MemorySystemConfig c = paperSystemConfig(
                        10, AllocationPolicy::UNIT_FILTER, sd, 18);
                    c.streams.replacement = r;
                    c.streams.associativeLookup = assoc;
                    c.streams.partitioned = split;
                    out.push_back(
                        {label(r, assoc, 2, split) +
                             (sd == StrideDetection::CZONE ? "/czone"
                                                           : "/mindelta"),
                         c});
                }
            }
        }
    }
    MemorySystemConfig bus = paperSystemConfig(10);
    bus.busCyclesPerBlock = 4;
    out.push_back({"lru/head/d2/unified/bus4", bus});
    MemorySystemConfig l2 = paperSystemConfig(
        10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);
    l2.useL2 = true;
    l2.l2.sizeBytes = 256 * 1024;
    l2.busCyclesPerBlock = 4;
    out.push_back({"lru/head/d2/unified/czone/l2-256k/bus4", l2});
    return out;
}

/** Digests of runMetrics(replayOnce(...)).writeJson, by label. */
const std::map<std::string, std::uint64_t> kPins = {
    {"lru/head/d1/unified", 0x3d2c55bbe7345848ULL},
    {"lru/head/d1/split", 0xf5a542502543b9c3ULL},
    {"lru/head/d2/unified", 0x45cd88ca4c285d49ULL},
    {"lru/head/d2/split", 0x5405dc06dc02cfdcULL},
    {"lru/head/d4/unified", 0x7f826375fe24232aULL},
    {"lru/head/d4/split", 0xb01734dc592e3ec4ULL},
    {"lru/head/d8/unified", 0x4a16a78f003f862bULL},
    {"lru/head/d8/split", 0x7e3ff82a7eccafeaULL},
    {"lru/head/d16/unified", 0xedfda1aa106f3d06ULL},
    {"lru/head/d16/split", 0x014bc63bd30e76e4ULL},
    {"lru/assoc/d1/unified", 0x3d2c55bbe7345848ULL},
    {"lru/assoc/d1/split", 0xf5a542502543b9c3ULL},
    {"lru/assoc/d2/unified", 0x00c725bd7ac92a85ULL},
    {"lru/assoc/d2/split", 0x84f077b73ae0e14cULL},
    {"lru/assoc/d4/unified", 0x4b5ed157c755884bULL},
    {"lru/assoc/d4/split", 0x9f63ae0214290082ULL},
    {"lru/assoc/d8/unified", 0xf007d111fd58b04fULL},
    {"lru/assoc/d8/split", 0x95a340528ebf7c4bULL},
    {"lru/assoc/d16/unified", 0xf4bc98e940a52d1eULL},
    {"lru/assoc/d16/split", 0x92e4f1a2e20dd79bULL},
    {"fifo/head/d1/unified", 0xaf5b50cade2ef5c6ULL},
    {"fifo/head/d1/split", 0x5fe448ca804b3756ULL},
    {"fifo/head/d2/unified", 0xe89ab6092d9bd9d1ULL},
    {"fifo/head/d2/split", 0x89d23d05f03ed605ULL},
    {"fifo/head/d4/unified", 0xc27d5fc95bca64ceULL},
    {"fifo/head/d4/split", 0xcce6641615a0e91aULL},
    {"fifo/head/d8/unified", 0x0e20e790b18fea06ULL},
    {"fifo/head/d8/split", 0x410c0deca8bd2c5eULL},
    {"fifo/head/d16/unified", 0xf7a5f69503923d62ULL},
    {"fifo/head/d16/split", 0xadcc7ad15d3bde2bULL},
    {"fifo/assoc/d1/unified", 0xaf5b50cade2ef5c6ULL},
    {"fifo/assoc/d1/split", 0x5fe448ca804b3756ULL},
    {"fifo/assoc/d2/unified", 0xfefbb8e8b100c346ULL},
    {"fifo/assoc/d2/split", 0x8b1b0979521bf4f9ULL},
    {"fifo/assoc/d4/unified", 0xff37542f9ca7dd27ULL},
    {"fifo/assoc/d4/split", 0xfcf691a124e2bab5ULL},
    {"fifo/assoc/d8/unified", 0xa73e8053c816ad55ULL},
    {"fifo/assoc/d8/split", 0xefe7a85e858f7f05ULL},
    {"fifo/assoc/d16/unified", 0xb1d3d5a8811c2137ULL},
    {"fifo/assoc/d16/split", 0x71f7293748159cf8ULL},
    {"random/head/d1/unified", 0xa8fff504b4d45a21ULL},
    {"random/head/d1/split", 0xc24e8add402af829ULL},
    {"random/head/d2/unified", 0xcd60b4f0a9d968b7ULL},
    {"random/head/d2/split", 0x90c97a6811327c60ULL},
    {"random/head/d4/unified", 0xf69a48ee3d1703c3ULL},
    {"random/head/d4/split", 0x7fea3432b7e49071ULL},
    {"random/head/d8/unified", 0xb82ad01a611c1b02ULL},
    {"random/head/d8/split", 0x928570c210527f23ULL},
    {"random/head/d16/unified", 0x9c22a0ed1bcf8003ULL},
    {"random/head/d16/split", 0xb460ff1939e9a127ULL},
    {"random/assoc/d1/unified", 0xa8fff504b4d45a21ULL},
    {"random/assoc/d1/split", 0xc24e8add402af829ULL},
    {"random/assoc/d2/unified", 0xab92d2073c6c00a6ULL},
    {"random/assoc/d2/split", 0x76d5420a12bfb400ULL},
    {"random/assoc/d4/unified", 0x278255859b2b9e05ULL},
    {"random/assoc/d4/split", 0x02772f4bbb364600ULL},
    {"random/assoc/d8/unified", 0x961d05cb266ce6f3ULL},
    {"random/assoc/d8/split", 0x3db41e81106cbd52ULL},
    {"random/assoc/d16/unified", 0x4648bade4a27e715ULL},
    {"random/assoc/d16/split", 0x316660af018d9c69ULL},
    {"lru/head/d2/unified/czone", 0x05bc726b4d12c107ULL},
    {"lru/head/d2/split/czone", 0x8eafc9d4770433bfULL},
    {"lru/assoc/d2/unified/czone", 0xd649185ef511e0c7ULL},
    {"lru/assoc/d2/split/czone", 0xf3b82898751bdf6dULL},
    {"fifo/head/d2/unified/czone", 0xa596c737715c7fbdULL},
    {"fifo/head/d2/split/czone", 0xb5a820ed931087f0ULL},
    {"fifo/assoc/d2/unified/czone", 0x45c3ba522567684fULL},
    {"fifo/assoc/d2/split/czone", 0xdf8258cdc5d75928ULL},
    {"random/head/d2/unified/czone", 0xce3688ec21f70a4aULL},
    {"random/head/d2/split/czone", 0xa549f9e361c6391eULL},
    {"random/assoc/d2/unified/czone", 0x6615c1e4ada31ea3ULL},
    {"random/assoc/d2/split/czone", 0xf977c89c14c6ae9fULL},
    {"lru/head/d2/unified/mindelta", 0x76e734e30cb3b3fdULL},
    {"lru/head/d2/split/mindelta", 0x4168f96dbf906043ULL},
    {"lru/assoc/d2/unified/mindelta", 0x347c92ebb1561fe4ULL},
    {"lru/assoc/d2/split/mindelta", 0x857e2305bf30d311ULL},
    {"fifo/head/d2/unified/mindelta", 0x9c656f8175558c51ULL},
    {"fifo/head/d2/split/mindelta", 0x07d7d4733245e183ULL},
    {"fifo/assoc/d2/unified/mindelta", 0xec007295af7fd7edULL},
    {"fifo/assoc/d2/split/mindelta", 0x774b9344875ae20eULL},
    {"random/head/d2/unified/mindelta", 0x5627685bcd736a8eULL},
    {"random/head/d2/split/mindelta", 0x9014d5f7c2fb078aULL},
    {"random/assoc/d2/unified/mindelta", 0x862e3b1b5d6f8ca5ULL},
    {"random/assoc/d2/split/mindelta", 0xe9e5f54e3b9c1934ULL},
    {"lru/head/d2/unified/bus4", 0x70495fd6289ad7abULL},
    {"lru/head/d2/unified/czone/l2-256k/bus4", 0xf4032b02aa66e844ULL},
};

} // namespace

TEST(AblationPins, ReplayedMetricsMatchPinnedDigests)
{
    auto workload = findBenchmark("mgrid").makeWorkload();
    TruncatingSource limited(*workload, kRefs);
    const MissTrace trace =
        recordMissTrace(limited, paperSystemConfig(10));
    ASSERT_GT(trace.size(), 0u);

    const std::vector<Variant> all = variants();
    EXPECT_EQ(all.size(), kPins.size());
    for (const Variant &v : all) {
        SCOPED_TRACE(v.label);
        RunOutput out = replayOnce(trace, v.config);
        std::ostringstream json;
        runMetrics(out).writeJson(json);
        std::uint64_t got = fnv1a(json.str());
        auto it = kPins.find(v.label);
        if (it == kPins.end() || it->second != got) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                          static_cast<unsigned long long>(got));
            ADD_FAILURE() << "pin {\"" << v.label << "\", " << hex
                          << "},";
        }
    }
}
