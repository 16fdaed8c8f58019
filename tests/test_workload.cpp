// Workload subsystem: golden-model oracles for every collective (partner
// formulas, message counts, and round structure checked against closed
// forms computed here, independently of the generator code), trace
// round-trip bit-identity, malformed-trace rejection with line-numbered
// errors, and end-to-end completion runs on PF q=7 and a torus.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/polarfly.hpp"
#include "exp/scenario.hpp"
#include "exp/suite.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "topo/torus.hpp"
#include "util/json.hpp"

namespace {

using namespace pf;

std::shared_ptr<const sim::Workload> make(const std::string& spec, int ranks,
                                          std::uint64_t seed = 1) {
  return sim::Workload::make(spec, ranks, seed);
}

void expect_invalid(const std::function<void()>& fn,
                    const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument containing \"" << needle
           << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// ---- golden-model oracles ------------------------------------------------
// Every check below recomputes the expected communication structure from
// the textbook definition of the collective — never from the generator.

TEST(WorkloadGolden, AlltoallIsAPhasedDerangementSchedule) {
  // All-to-all as N-1 rounds of the classic shifted-ring schedule: in
  // round p every rank r sends its block to (r + p + 1) mod N. Each
  // round is a fixed-point-free bijection, and across all rounds every
  // ordered pair (r, d != r) is hit exactly once.
  for (const int n : {5, 57}) {  // 57 = PF q=7 rank count at p=1
    const auto w = make("alltoall", n);
    EXPECT_EQ(w->name(), "alltoall");
    EXPECT_EQ(w->num_ranks(), n);
    ASSERT_EQ(w->num_phases(), n - 1);
    std::vector<std::set<int>> partners(static_cast<std::size_t>(n));
    for (int p = 0; p < n - 1; ++p) {
      std::set<int> dsts;
      for (int r = 0; r < n; ++r) {
        const auto& sends = w->sends(r, p);
        ASSERT_EQ(sends.size(), 1u) << "r=" << r << " p=" << p;
        EXPECT_EQ(sends[0].dst, (r + p + 1) % n);
        EXPECT_NE(sends[0].dst, r);
        EXPECT_EQ(sends[0].packets, 1);
        EXPECT_EQ(sends[0].release, 0);
        EXPECT_EQ(w->expected_recv(r, p), 1);
        dsts.insert(sends[0].dst);
        partners[static_cast<std::size_t>(r)].insert(sends[0].dst);
      }
      EXPECT_EQ(static_cast<int>(dsts.size()), n) << "p=" << p;
    }
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(static_cast<int>(partners[static_cast<std::size_t>(r)].size()),
                n - 1);
    }
    EXPECT_EQ(w->total_packets(),
              static_cast<std::int64_t>(n) * (n - 1));
  }
}

TEST(WorkloadGolden, RingAllreduceIsTwoSweepsAroundTheRing) {
  // Reduce-scatter + allgather: 2(N-1) steps, every step every rank
  // forwards one chunk to its ring successor and waits on its
  // predecessor — so every phase is the same rotation permutation.
  const int n = 16;
  const auto w = make("ring_allreduce", n);
  ASSERT_EQ(w->num_phases(), 2 * (n - 1));
  for (int p = 0; p < w->num_phases(); ++p) {
    for (int r = 0; r < n; ++r) {
      const auto& sends = w->sends(r, p);
      ASSERT_EQ(sends.size(), 1u);
      EXPECT_EQ(sends[0].dst, (r + 1) % n);
      EXPECT_EQ(w->expected_recv(r, p), 1);  // from (r - 1 + n) % n
    }
  }
  EXPECT_EQ(w->total_packets(), static_cast<std::int64_t>(n) * 2 * (n - 1));
}

TEST(WorkloadGolden, RdAllreducePowerOfTwoIsPureButterfly) {
  // N = 8: exactly log2(8) = 3 rounds, round i pairing r with r XOR 2^i.
  // The pairing is an involution, so sends and receives mirror exactly.
  const int n = 8;
  const auto w = make("rd_allreduce", n);
  ASSERT_EQ(w->num_phases(), 3);
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r < n; ++r) {
      const auto& sends = w->sends(r, i);
      ASSERT_EQ(sends.size(), 1u);
      const int partner = r ^ (1 << i);
      EXPECT_EQ(sends[0].dst, partner);
      ASSERT_EQ(w->sends(partner, i).size(), 1u);
      EXPECT_EQ(w->sends(partner, i)[0].dst, r);  // involution
      EXPECT_EQ(w->expected_recv(r, i), 1);
    }
  }
  EXPECT_EQ(w->total_packets(), 3 * 8);
}

TEST(WorkloadGolden, RdAllreduceNonPowerOfTwoFoldsSurplusRanks) {
  // N = 57 (PF q=7): pow = 32, rem = 25, so 5 butterfly rounds wrapped
  // in a fold-in phase (ranks 32..56 send to r - 32) and a result
  // distribution phase (ranks 0..24 send back to r + 32). Surplus ranks
  // are idle through the butterfly.
  const int n = 57;
  const int pow2 = 32;
  const int rem = n - pow2;  // 25
  const auto w = make("rd_allreduce", n);
  ASSERT_EQ(w->num_phases(), 5 + 2);
  // Phase 0: fold-in.
  for (int r = 0; r < n; ++r) {
    const auto& sends = w->sends(r, 0);
    if (r >= pow2) {
      ASSERT_EQ(sends.size(), 1u) << r;
      EXPECT_EQ(sends[0].dst, r - pow2);
    } else {
      EXPECT_TRUE(sends.empty()) << r;
      EXPECT_EQ(w->expected_recv(r, 0), r < rem ? 1 : 0);
    }
  }
  // Phases 1..5: butterfly over ranks [0, 32); surplus ranks idle.
  for (int i = 0; i < 5; ++i) {
    const int p = 1 + i;
    for (int r = 0; r < n; ++r) {
      const auto& sends = w->sends(r, p);
      if (r < pow2) {
        ASSERT_EQ(sends.size(), 1u);
        EXPECT_EQ(sends[0].dst, r ^ (1 << i));
        EXPECT_EQ(w->expected_recv(r, p), 1);
      } else {
        EXPECT_TRUE(sends.empty());
        EXPECT_EQ(w->expected_recv(r, p), 0);
      }
    }
  }
  // Final phase: distribute the result back to the folded ranks.
  for (int r = 0; r < n; ++r) {
    const auto& sends = w->sends(r, 6);
    if (r < rem) {
      ASSERT_EQ(sends.size(), 1u);
      EXPECT_EQ(sends[0].dst, r + pow2);
    } else {
      EXPECT_TRUE(sends.empty());
      EXPECT_EQ(w->expected_recv(r, 6), r >= pow2 ? 1 : 0);
    }
  }
  EXPECT_EQ(w->total_packets(), rem + 5 * pow2 + rem);
}

TEST(WorkloadGolden, Stencil2dExchangesWithTorusNeighbors) {
  // 16 ranks factor into the 4x4 periodic grid with rank = x + 4y; the
  // 5-point halo partners are the four (+-1 mod 4) neighbors, the
  // relation is symmetric, and every iteration repeats it.
  const int n = 16;
  const auto w = make("stencil2d", n);
  ASSERT_EQ(w->num_phases(), 4);  // iters default
  for (int r = 0; r < n; ++r) {
    const int x = r % 4;
    const int y = r / 4;
    const std::set<int> expect = {
        (x + 1) % 4 + 4 * y, (x + 3) % 4 + 4 * y,
        x + 4 * ((y + 1) % 4), x + 4 * ((y + 3) % 4)};
    ASSERT_EQ(expect.size(), 4u);
    for (int p = 0; p < 4; ++p) {
      std::set<int> got;
      for (const auto& m : w->sends(r, p)) got.insert(m.dst);
      EXPECT_EQ(got, expect) << "r=" << r << " p=" << p;
      EXPECT_EQ(w->expected_recv(r, p), 4);  // symmetric relation
    }
  }
  EXPECT_EQ(w->total_packets(), 16 * 4 * 4);
}

TEST(WorkloadGolden, Stencil3dOnWidthTwoDimsDedupsToBitFlips) {
  // 8 ranks on the 2x2x2 grid: +1 and -1 coincide in every dimension, so
  // each rank's halo is exactly its three single-bit-flip neighbors.
  const auto w = make("stencil3d:iters=2", 8);
  EXPECT_EQ(w->name(), "stencil3d:iters=2");
  ASSERT_EQ(w->num_phases(), 2);
  for (int r = 0; r < 8; ++r) {
    const std::set<int> expect = {r ^ 1, r ^ 2, r ^ 4};
    for (int p = 0; p < 2; ++p) {
      std::set<int> got;
      for (const auto& m : w->sends(r, p)) got.insert(m.dst);
      EXPECT_EQ(got, expect) << r;
      EXPECT_EQ(w->expected_recv(r, p), 3);
    }
  }
  EXPECT_EQ(w->total_packets(), 8 * 3 * 2);
}

TEST(WorkloadGolden, IncastConvergesOnTheTargetSet) {
  // Default: every other rank fans 8 packets into rank 0, which itself
  // sends nothing — the pure N-to-1 pattern.
  const int n = 8;
  const auto w = make("incast", n);
  ASSERT_EQ(w->num_phases(), 1);
  EXPECT_TRUE(w->sends(0, 0).empty());
  for (int r = 1; r < n; ++r) {
    const auto& sends = w->sends(r, 0);
    ASSERT_EQ(sends.size(), 1u);
    EXPECT_EQ(sends[0].dst, 0);
    EXPECT_EQ(sends[0].packets, 8);
  }
  EXPECT_EQ(w->expected_recv(0, 0), (n - 1) * 8);
  EXPECT_EQ(w->total_packets(), (n - 1) * 8);

  // targets=2: rank 0 and 1 each hit the other target only.
  const auto w2 = make("incast:targets=2,packets=3", n);
  EXPECT_EQ(w2->name(), "incast:packets=3,targets=2");
  ASSERT_EQ(w2->sends(0, 0).size(), 1u);
  EXPECT_EQ(w2->sends(0, 0)[0].dst, 1);
  ASSERT_EQ(w2->sends(1, 0).size(), 1u);
  EXPECT_EQ(w2->sends(1, 0)[0].dst, 0);
  for (int r = 2; r < n; ++r) {
    ASSERT_EQ(w2->sends(r, 0).size(), 2u);
  }
  EXPECT_EQ(w2->expected_recv(0, 0), (n - 1) * 3);
  EXPECT_EQ(w2->total_packets(), ((n - 2) * 2 + 2) * 3);
}

TEST(WorkloadGolden, BurstyTrainsAreSpacedByTheGap) {
  const int n = 6;
  const auto w = make("bursty:bursts=3,gap=100,packets=2", n, 77);
  EXPECT_EQ(w->name(), "bursty:bursts=3,gap=100,packets=2");
  ASSERT_EQ(w->num_phases(), 1);
  for (int r = 0; r < n; ++r) {
    const auto& sends = w->sends(r, 0);
    ASSERT_EQ(sends.size(), 3u);
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(sends[static_cast<std::size_t>(b)].release, b * 100);
      EXPECT_EQ(sends[static_cast<std::size_t>(b)].packets, 2);
      EXPECT_NE(sends[static_cast<std::size_t>(b)].dst, r);
      EXPECT_GE(sends[static_cast<std::size_t>(b)].dst, 0);
      EXPECT_LT(sends[static_cast<std::size_t>(b)].dst, n);
    }
  }
  EXPECT_EQ(w->total_packets(), 6 * 3 * 2);
}

TEST(WorkloadGolden, HotspotBiasLandsOnTheHotRanks) {
  // bias=100 with one hotspot: every message from r != 0 must hit rank 0
  // (rank 0's own draws redraw uniformly and must avoid itself).
  const int n = 12;
  const auto w = make("hotspot:bias=100", n, 5);
  ASSERT_EQ(w->num_phases(), 1);
  for (int r = 0; r < n; ++r) {
    const auto& sends = w->sends(r, 0);
    ASSERT_EQ(sends.size(), 8u);  // packets default, single-packet msgs
    for (const auto& m : sends) {
      EXPECT_EQ(m.packets, 1);
      EXPECT_NE(m.dst, r);
      if (r != 0) {
        EXPECT_EQ(m.dst, 0);
      }
    }
  }
  EXPECT_EQ(w->total_packets(), 12 * 8);
}

TEST(Workload, SeededGeneratorsAreDeterministicPerSeed) {
  for (const char* spec : {"bursty", "hotspot"}) {
    EXPECT_TRUE(sim::workload_uses_seed(spec)) << spec;
    EXPECT_EQ(make(spec, 16, 9)->to_trace(), make(spec, 16, 9)->to_trace());
    EXPECT_NE(make(spec, 16, 9)->to_trace(), make(spec, 16, 10)->to_trace());
  }
  EXPECT_TRUE(sim::workload_uses_seed("bursty:gap=1"));
  for (const char* spec : {"alltoall", "ring_allreduce", "rd_allreduce",
                           "stencil2d", "stencil3d", "incast",
                           "trace:file=x"}) {
    EXPECT_FALSE(sim::workload_uses_seed(spec)) << spec;
    // Seed-blind generators: identical at any seed (trace:file aside).
  }
  EXPECT_EQ(make("alltoall", 8, 1)->to_trace(),
            make("alltoall", 8, 2)->to_trace());
}

TEST(Workload, SpecParsingRejectsAbuse) {
  expect_invalid([] { make("warp_drive", 8); }, "unknown workload");
  expect_invalid([] { make("alltoall:foo=1", 8); },
                 "unknown parameter \"foo\"");
  expect_invalid([] { make("alltoall:packets=1,packets=2", 8); },
                 "duplicate parameter \"packets\"");
  expect_invalid([] { make("alltoall:packets", 8); },
                 "malformed parameter");
  expect_invalid([] { make("alltoall:packets=x", 8); },
                 "not an integer");
  expect_invalid([] { make("alltoall:packets=0", 8); }, "out of range");
  expect_invalid([] { make("alltoall", 1); }, ">= 2 ranks");
  expect_invalid([] { make(":a=1", 8); }, "empty workload name");
  expect_invalid([] { make("hotspot:hotspots=8", 8); }, "out of range");
  expect_invalid([] { make("trace", 8); }, "missing parameter \"file\"");
  expect_invalid([] { make("trace:file=/nonexistent/trace.jsonl", 8); },
                 "cannot read trace file");
  // Canonical names omit defaults and use a fixed parameter order.
  EXPECT_EQ(make("alltoall:packets=1", 8)->name(), "alltoall");
  EXPECT_EQ(make("bursty:gap=128,bursts=2", 8)->name(),
            "bursty:bursts=2,gap=128");
}

TEST(Workload, SizeCapsRejectBeforeAllocating) {
  // ranks * phases: alltoall on 8193 ranks needs 8193 * 8192 > 2^26 rows.
  expect_invalid([] { make("alltoall", 8193); },
                 "workload \"alltoall\": 8193 ranks x 8192 phases exceeds "
                 "2^26");
  // Messages: 4097 ranks x 2^20 single-packet hotspot messages pass
  // UINT32_MAX while the table itself is one phase wide.
  expect_invalid([] { make("hotspot:packets=1048576", 4097); },
                 "workload \"hotspot:packets=1048576\": 4296015872 "
                 "messages exceed UINT32_MAX");
  // Receive expectation: 2048 senders x 2^20 packets into rank 0 is 2^31.
  expect_invalid([] { make("incast:packets=1048576", 2049); },
                 "workload \"incast:packets=1048576\": rank 0 would expect "
                 "more than INT32_MAX packets in phase 0");
  // A replayed trace hits the same expectation cap, with its line number.
  const std::string big = "{\"rank\":1,\"phase\":0,\"dst\":0,"
                          "\"packets\":1048576,\"release\":0}\n";
  std::string text = "{\"schema\":\"polarfly-trace/1\",\"workload\":\"t\","
                     "\"ranks\":2,\"phases\":1}\n";
  for (int i = 0; i < 2048; ++i) text += big;
  expect_invalid([&text] { sim::Workload::from_trace(text, "big.jsonl"); },
                 "big.jsonl line 2049: rank 0 would expect more than "
                 "INT32_MAX packets in phase 0");
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Workload, GeneratorOutputIsPinned) {
  // FNV-1a of every generator's trace, recorded before the generators
  // were reordered to emit rank-major: any change to a message, or to
  // the order within a (rank, phase), moves the hash. 60 ranks is not a
  // power of two, so rd_allreduce's fold-in phases are covered.
  struct Pin {
    const char* spec;
    int ranks;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"alltoall", 57, 0x690319a1a214d7a9ULL},
      {"alltoall:packets=3", 57, 0x6696ca4efa38d2eaULL},
      {"ring_allreduce", 57, 0xa581772a91fb7515ULL},
      {"rd_allreduce", 57, 0x436e81c63d2718c2ULL},
      {"stencil2d", 57, 0x4fb464582be39095ULL},
      {"stencil3d:iters=2,packets=2", 57, 0xa70aa27ffbb04d48ULL},
      {"bursty", 57, 0x7e94c99d2a9ffe33ULL},
      {"bursty:bursts=3,gap=64", 57, 0x9b921810ad723008ULL},
      {"hotspot:bias=80", 57, 0x7373717aedcbd008ULL},
      {"incast", 57, 0x443d9686ced6c027ULL},
      {"incast:targets=4", 57, 0x5c5c00ab347d2461ULL},
      {"alltoall", 60, 0x32337cd1ec09373aULL},
      {"alltoall:packets=3", 60, 0x8765f9cd86d5d0f1ULL},
      {"ring_allreduce", 60, 0x8b73f86d9667b611ULL},
      {"rd_allreduce", 60, 0xd5c65fe9c5bddbe8ULL},
      {"stencil2d", 60, 0x7743726e3a7ba0bfULL},
      {"stencil3d:iters=2,packets=2", 60, 0x284d2fdb8304d2faULL},
      {"bursty", 60, 0x0c9cdedb999b0ae1ULL},
      {"bursty:bursts=3,gap=64", 60, 0x3f4d44a6795125f4ULL},
      {"hotspot:bias=80", 60, 0xd65dacacaf405a78ULL},
      {"incast", 60, 0xe4ab19297105b5deULL},
      {"incast:targets=4", 60, 0x9f2993f0527d367bULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(fnv1a(make(pin.spec, pin.ranks, 779712)->to_trace()), pin.hash)
        << pin.spec << " @ " << pin.ranks << " ranks";
  }
}

// ---- trace round-trip ----------------------------------------------------

TEST(WorkloadTrace, ToTraceFromTraceIsBitIdentical) {
  for (const char* spec :
       {"alltoall", "ring_allreduce", "rd_allreduce", "stencil3d",
        "bursty:bursts=2,gap=64", "hotspot:bias=80", "incast:targets=2"}) {
    const auto w = make(spec, 8, 1234);
    const std::string text = w->to_trace();
    const auto replay = sim::Workload::from_trace(text, "roundtrip");
    EXPECT_EQ(replay->name(), w->name()) << spec;
    EXPECT_EQ(replay->num_ranks(), w->num_ranks());
    EXPECT_EQ(replay->num_phases(), w->num_phases());
    EXPECT_EQ(replay->total_packets(), w->total_packets());
    // Re-serialization is byte-identical, which pins every message,
    // order included, and hence every derived receive expectation.
    EXPECT_EQ(replay->to_trace(), text) << spec;
  }
}

std::string trace_header(int ranks, int phases,
                         const std::string& name = "t") {
  return "{\"schema\":\"polarfly-trace/1\",\"workload\":\"" + name +
         "\",\"ranks\":" + std::to_string(ranks) +
         ",\"phases\":" + std::to_string(phases) + "}\n";
}

std::string trace_msg(int rank, int phase, int dst, int packets = 1,
                      long long release = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"rank\":%d,\"phase\":%d,\"dst\":%d,\"packets\":%d,"
                "\"release\":%lld}\n",
                rank, phase, dst, packets, release);
  return buf;
}

TEST(WorkloadTrace, MalformedTracesFailWithLineNumbers) {
  const auto reject = [](const std::string& text,
                         const std::string& needle) {
    expect_invalid(
        [&text] { sim::Workload::from_trace(text, "bad.jsonl"); },
        needle);
  };
  const std::string h = trace_header(3, 2);

  reject("", "bad.jsonl line 1: missing polarfly-trace/1 header");
  reject("\n" + h, "line 1: empty line");
  reject(h + "{\"rank\":0,\n", "line 2");  // torn JSON line
  reject(h + "[1, 2]\n", "line 2: expected a JSON object");
  reject("{\"schema\":\"polarfly-trace/2\",\"workload\":\"t\","
         "\"ranks\":3,\"phases\":2}\n",
         "line 1: expected schema \"polarfly-trace/1\"");
  reject("{\"schema\":\"polarfly-trace/1\",\"workload\":\"t\","
         "\"ranks\":3,\"phases\":2,\"bogus\":1}\n",
         "line 1: unknown header key \"bogus\"");
  reject("{\"schema\":\"polarfly-trace/1\",\"workload\":\"\","
         "\"ranks\":3,\"phases\":2}\n",
         "non-empty string");
  reject(trace_header(1, 2), "line 1: ranks = 1 out of range [2,");
  reject(trace_header(3, 0), "line 1: phases = 0 out of range [1,");
  reject(trace_header(1 << 20, 1 << 20), "ranks * phases exceeds 2^26");
  reject(h + "{\"rank\":0,\"phase\":0,\"dst\":1,\"packets\":1,"
             "\"release\":0,\"extra\":1}\n",
         "line 2: unknown key \"extra\"");
  reject(h + "{\"rank\":0,\"phase\":0,\"packets\":1,\"release\":0}\n",
         "line 2: missing key \"dst\"");
  reject(h + "{\"rank\":\"x\",\"phase\":0,\"dst\":1,\"packets\":1,"
             "\"release\":0}\n",
         "line 2: key \"rank\" must be an integer");
  reject(h + trace_msg(5, 0, 1), "line 2: rank 5 out of range [0, 3)");
  reject(h + trace_msg(0, 3, 1), "line 2: phase 3 out of range [0, 2)");
  reject(h + trace_msg(0, 0, 7), "line 2: dst 7 out of range [0, 3)");
  reject(h + trace_msg(1, 0, 1), "line 2: rank 1 sends to itself");
  reject(h + trace_msg(0, 0, 1, 0), "line 2: packets = 0 out of range");
  reject(h + trace_msg(0, 0, 1, 1, -1), "line 2: release = -1 is negative");
  reject(h + trace_msg(1, 0, 0) + trace_msg(0, 0, 1),
         "line 3: rank 0 after rank 1 (trace must be rank-major)");
  reject(h + trace_msg(0, 1, 1) + trace_msg(0, 0, 1),
         "line 3: phase 0 after phase 1 for rank 0");
  reject(h + trace_msg(0, 0, 1, 1, 5) + trace_msg(0, 0, 2, 1, 3),
         "line 3: release 3 travels back in time (previous release 5)");
}

TEST(WorkloadTrace, ReplayRejectsRankCountMismatch) {
  const std::string path = "test_workload_rank_mismatch.jsonl";
  ASSERT_TRUE(util::write_text_file(
      path, trace_header(4, 1) + trace_msg(0, 0, 1)));
  expect_invalid([&path] { make("trace:file=" + path, 8); },
                 "trace has 4 ranks but the topology provides 8 terminals");
  // The matching rank count loads fine and keeps the header's name.
  const auto w = make("trace:file=" + path, 4);
  EXPECT_EQ(w->name(), "t");
  EXPECT_EQ(w->total_packets(), 1);
  std::remove(path.c_str());
}

// ---- end-to-end completion on real topologies ----------------------------

struct CompletionRun {
  bool done = false;
  bool converged = false;
  std::int64_t completion = 0;
  std::int64_t lost = 0;
  std::int64_t delivered = 0;
  double avg_latency = 0.0;
  double p99_latency = 0.0;
  std::vector<std::int64_t> phase_cycles;
};

CompletionRun run_workload(const graph::Graph& g, const sim::Workload& w,
                           double load,
                           sim::SimEngine engine = sim::SimEngine::Event) {
  const sim::DistanceOracle oracle(g);
  const sim::MinimalRouting routing(g, oracle);
  const auto endpoints = sim::uniform_endpoints(g.num_vertices(), 1);
  const sim::UniformTraffic pattern(sim::terminal_routers(endpoints));
  sim::SimConfig config;
  config.warmup_cycles = 1000;
  config.measure_cycles = 4000;
  config.drain_cycles = 60000;
  config.engine = engine;
  sim::Network net(g, endpoints, routing, pattern, config, load, &w);
  net.run_phases();
  CompletionRun out;
  EXPECT_TRUE(net.workload_active());
  out.done = net.workload_done();
  out.converged = net.converged();
  out.completion = net.workload_completion_cycles();
  out.lost = net.workload_lost();
  out.delivered = net.delivered_packets();
  out.avg_latency = net.avg_latency();
  out.p99_latency = net.p99_latency();
  out.phase_cycles = net.workload_phase_cycles();
  return out;
}

void expect_complete(const CompletionRun& run, const sim::Workload& w) {
  EXPECT_TRUE(run.done);
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.lost, 0);
  EXPECT_EQ(run.delivered, w.total_packets());
  ASSERT_EQ(run.phase_cycles.size(),
            static_cast<std::size_t>(w.num_phases()));
  std::int64_t prev = 0;
  for (std::size_t p = 0; p < run.phase_cycles.size(); ++p) {
    EXPECT_GE(run.phase_cycles[p], prev) << "phase " << p;
    prev = run.phase_cycles[p];
  }
  EXPECT_EQ(run.completion, run.phase_cycles.back());
  EXPECT_GT(run.avg_latency, 0.0);
  EXPECT_GE(run.p99_latency, run.avg_latency);
}

TEST(WorkloadSim, CollectivesCompleteOnPfQ7) {
  const core::PolarFly pf7(7);  // 57 routers, 57 ranks at p=1
  for (const char* spec : {"alltoall", "rd_allreduce", "stencil2d"}) {
    const auto w = make(spec, pf7.num_vertices());
    const CompletionRun run = run_workload(pf7.graph(), *w, 0.5);
    SCOPED_TRACE(spec);
    expect_complete(run, *w);
  }
}

TEST(WorkloadSim, CollectivesCompleteOnATorus) {
  const topo::Torus torus(4, 2);  // 16 routers, 16 ranks
  for (const char* spec :
       {"alltoall", "ring_allreduce", "rd_allreduce", "incast"}) {
    const auto w = make(spec, torus.num_vertices());
    const CompletionRun run = run_workload(torus.graph(), *w, 1.0);
    SCOPED_TRACE(spec);
    expect_complete(run, *w);
  }
}

TEST(WorkloadSim, BurstyReleasesGateInjection) {
  // The last burst is released at (bursts - 1) * gap, so completion can
  // never undercut that floor even on an empty network.
  const topo::Torus torus(4, 2);
  const auto w = make("bursty:bursts=3,gap=500,packets=1",
                      torus.num_vertices(), 11);
  const CompletionRun run = run_workload(torus.graph(), *w, 1.0);
  expect_complete(run, *w);
  EXPECT_GE(run.completion, 2 * 500);
}

TEST(WorkloadSim, RecordedTraceReplaysBitIdentically) {
  // The headline replay claim at the library level: capture a seeded
  // workload to its trace, replay it, and the simulation statistics —
  // completion, per-phase cycles, latencies — are bit-identical.
  const topo::Torus torus(4, 2);
  const auto original = make("bursty:bursts=2,gap=64", torus.num_vertices(),
                             0xfeedULL);
  const std::string text = original->to_trace();
  const auto replayed = sim::Workload::from_trace(text, "replay");
  for (const auto engine : {sim::SimEngine::Event, sim::SimEngine::Cycle}) {
    const CompletionRun a = run_workload(torus.graph(), *original, 0.7,
                                         engine);
    const CompletionRun b = run_workload(torus.graph(), *replayed, 0.7,
                                         engine);
    EXPECT_EQ(b.done, a.done);
    EXPECT_EQ(b.completion, a.completion);
    EXPECT_EQ(b.delivered, a.delivered);
    EXPECT_EQ(b.avg_latency, a.avg_latency);
    EXPECT_EQ(b.p99_latency, a.p99_latency);
    EXPECT_EQ(b.phase_cycles, a.phase_cycles);
  }
}

TEST(WorkloadSuite, CommittedWorkloadSuiteResolvesEverywhere) {
  // The shipped workloads matrix must parse, expand, and compile every
  // workload spec at its topology's real rank count — a committed suite
  // whose specs rot is exactly the drift this gate exists to catch.
  std::string text;
  ASSERT_TRUE(util::read_text_file(
      std::string(PF_SUITE_DIR) + "/workloads.json", text));
  const exp::Suite suite = exp::parse_suite(text);
  EXPECT_EQ(suite.name, "workloads");
  EXPECT_GE(suite.cases.size(), 24u);
  auto& registry = exp::ScenarioRegistry::shared();
  for (const auto& cs : suite.cases) {
    ASSERT_FALSE(cs.spec.workload.empty()) << cs.spec.name;
    ASSERT_FALSE(cs.loads.empty()) << cs.spec.name;
    const exp::Scenario scenario = registry.make(cs.spec);
    ASSERT_NE(scenario.workload, nullptr) << cs.spec.name;
    EXPECT_EQ(scenario.workload->num_ranks(),
              static_cast<int>(scenario.setup->terminals().size()))
        << cs.spec.name;
    EXPECT_TRUE(exp::serves_all_terminals(*scenario.setup)) << cs.spec.name;
  }
}

}  // namespace
