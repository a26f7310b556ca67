#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "../support/mutants.hpp"
#include "serve/oracle.hpp"
#include "support/fnv.hpp"

namespace pushpart {
namespace {

CanonicalKey keyFor(int n, PlanTier tier = PlanTier::kFast) {
  PlanRequest req;
  req.n = n;
  req.tier = tier;
  if (tier == PlanTier::kSearch) req.searchRuns = 3;
  return canonicalize(req);
}

/// A full-fidelity answer exercising every serialized field, including
/// doubles that don't round-trip through shorter formats.
PlanAnswer richAnswer(int salt) {
  PlanAnswer a;
  a.shape = static_cast<CandidateShape>(salt % kNumCandidates);
  a.model.commSeconds = 0.1 + salt / 3.0;
  a.model.overlapSeconds = 0.01 * salt;
  a.model.compSeconds = 1.0 / (salt + 7);
  a.model.execSeconds = a.model.compSeconds + a.model.commSeconds;
  a.voc = 1000 + salt;
  a.optimalityGapPct = 1.25 * salt;
  a.family = static_cast<FamilyId>(salt % kNumFamilies);
  // Every third entry leaves the token empty to exercise the "-" encoding.
  if (salt % 3 != 0) a.familyCandidate = "layers:P/R-S:r";
  a.tier = salt % 2 == 0 ? PlanTier::kFast : PlanTier::kSearch;
  a.servedTier = a.tier;
  a.solveSeconds = 3.14159e-4 * (salt + 1);
  if (a.tier == PlanTier::kSearch) {
    a.searchRuns = 8;
    a.searchCompleted = 8;
    a.searchBestVoc = 900 + salt;
    a.searchBestExecSeconds = a.model.execSeconds * 1.125;
    a.searchConfirmedCandidate = true;
  }
  return a;
}

void populate(PlanCache& cache, int entries) {
  for (int i = 0; i < entries; ++i)
    cache.getOrCompute(keyFor(20 + i), [&]() { return richAnswer(i); });
}

TEST(SnapshotTest, SaveLoadSaveIsByteIdentical) {
  PlanCache cache(64, 4);
  populate(cache, 6);
  std::ostringstream first;
  EXPECT_EQ(savePlanCacheSnapshot(cache, first), 6u);

  PlanCache restored(64, 4);
  std::istringstream in(first.str());
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  EXPECT_EQ(report.loaded, 6u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(restored.counters().entries, 6u);

  std::ostringstream second;
  savePlanCacheSnapshot(restored, second);
  // %.17g doubles + deterministic export order make the round trip exact.
  EXPECT_EQ(first.str(), second.str());
}

TEST(SnapshotTest, RestoredAnswersAreBitwiseEqual) {
  PlanCache cache(64, 4);
  populate(cache, 4);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  PlanCache restored(64, 4);
  std::istringstream in(os.str());
  tryLoadPlanCacheSnapshot(restored, in);
  for (int i = 0; i < 4; ++i) {
    const auto hit = restored.tryGet(keyFor(20 + i));
    ASSERT_TRUE(hit.has_value()) << "entry " << i << " missing after reload";
    EXPECT_EQ(*hit, richAnswer(i));
  }
}

TEST(SnapshotTest, FlippedByteSkipsThatEntryAndKeepsTheRest) {
  PlanCache cache(64, 4);
  populate(cache, 5);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  std::string text = os.str();

  // Corrupt one digit inside the third entry line's payload.
  std::size_t pos = 0;
  for (int line = 0; line < 4; ++line) pos = text.find('\n', pos) + 1;
  const std::size_t digit = text.find_first_of("0123456789", pos + 20);
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '8' : '9';

  PlanCache restored(64, 4);
  std::istringstream in(text);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  EXPECT_EQ(report.loaded, 4u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(restored.counters().entries, 4u);
}

TEST(SnapshotTest, TruncatedFileKeepsThePrefixEntries) {
  PlanCache cache(64, 4);
  populate(cache, 5);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  const std::string text = os.str();

  // Cut mid-way through the last entry line, as a crash mid-append would.
  const std::string cut = text.substr(0, text.size() - 25);
  PlanCache restored(64, 4);
  std::istringstream in(cut);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  EXPECT_EQ(report.loaded, 4u);
  EXPECT_EQ(report.skipped, 1u);
}

TEST(SnapshotTest, LostLinesAreCountedAsSkipped) {
  // A file cut after a complete line holds only valid entries; the declared
  // entry count is what tells the loader the rest is gone.
  PlanCache cache(64, 4);
  populate(cache, 10);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  const std::string text = os.str();
  std::size_t cut = text.find('\n', text.find("\nentries ") + 1) + 1;
  for (std::size_t kept = 0; kept < 10; ++kept) {
    PlanCache restored(64, 4);
    std::istringstream in(text.substr(0, cut));
    const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_FALSE(report.clean()) << kept << " entries kept";
    EXPECT_EQ(report.loaded, kept);
    EXPECT_EQ(report.skipped, 10 - kept) << kept << " entries kept";
    cut = text.find('\n', cut) + 1;
  }
  EXPECT_EQ(cut, text.size());  // every cut short of the whole file ran

  // Losing the count line as well leaves one visible loss: the line itself.
  PlanCache restored(64, 4);
  std::istringstream magicOnly(text.substr(0, text.find('\n') + 1));
  const SnapshotLoadReport report =
      tryLoadPlanCacheSnapshot(restored, magicOnly);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.skipped, 1u);
}

TEST(SnapshotTest, SavedBytesArePinned) {
  // The snapshot format is v3 on disk: a fixed cache must save the same
  // bytes as every earlier build of v3 did.
  PlanCache cache(64, 4);
  populate(cache, 6);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  EXPECT_EQ(fnv1a(os.str()), 0x88ff896875bbbb1eull) << os.str();
}

TEST(SnapshotTest, MutationSweepLoadsOnlySavedEntriesAndNeverHidesAnEdit) {
  // Every single-bit flip, byte deletion, duplication and truncation, and
  // every dropped or duplicated line of a saved snapshot: each entry a
  // mutant loads is one that was saved, and a mutant loads clean() only
  // when it differs in blank lines, a '\r' or the final newline alone.
  PlanCache cache(64, 4);
  populate(cache, 6);
  const std::vector<PlanCache::SnapshotEntry> saved = cache.exportEntries();
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  const std::string text = os.str();
  const std::vector<std::string> mutants = testing_mutants::mutantsOf(text);
  EXPECT_EQ(mutants.size(), 16868u);
  std::size_t foreign = 0, hidden = 0;
  for (const std::string& mutant : mutants) {
    PlanCache restored(64, 4);
    std::istringstream in(mutant);
    const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
    for (const PlanCache::SnapshotEntry& got : restored.exportEntries())
      if (std::none_of(saved.begin(), saved.end(),
                       [&](const PlanCache::SnapshotEntry& entry) {
                         return got.key == entry.key &&
                                got.answer == entry.answer;
                       }))
        ++foreign;
    if (report.clean() && testing_mutants::tolerantForm(mutant) !=
                              testing_mutants::tolerantForm(text) &&
        hidden++ == 0)
      ADD_FAILURE() << "an edited snapshot loaded clean():\n" << mutant;
  }
  EXPECT_EQ(foreign, 0u);
  EXPECT_EQ(hidden, 0u);
}

TEST(SnapshotTest, AnswersTheCacheNeverHoldsAreSkippedAndSolvedCold) {
  // Checksummed entries no serving path would cache: a degraded answer, a
  // truncated one, and ones with a negative count or time. Each is skipped,
  // and the key is then solved cold instead of served as a hit.
  PlanRequest req;
  req.n = 40;
  const std::string key = canonicalize(req).text;
  const PlanAnswer good = Oracle(OracleOptions{}).plan(req).answer;
  PlanAnswer late = good, truncated = good, negativeVoc = good,
             negativeTime = good;
  late.degrade = DegradeReason::kLate;
  truncated.truncated = true;
  negativeVoc.voc = -5;
  negativeTime.model.commSeconds = -1.0;
  for (const PlanAnswer& bad : {late, truncated, negativeVoc, negativeTime}) {
    std::ostringstream wire;
    savePlanCacheSegment({{key, bad}}, wire);
    Oracle oracle(OracleOptions{});
    std::istringstream in(wire.str());
    const SnapshotLoadReport report = oracle.loadSnapshotSegment(in);
    EXPECT_TRUE(report.ok()) << report.error;
    EXPECT_EQ(report.loaded, 0u);
    EXPECT_EQ(report.skipped, 1u);
    EXPECT_FALSE(oracle.plan(req).cacheHit);
  }
  // The same answer at full fidelity is restored and served as a hit.
  std::ostringstream wire;
  savePlanCacheSegment({{key, good}}, wire);
  Oracle oracle(OracleOptions{});
  std::istringstream in(wire.str());
  EXPECT_TRUE(oracle.loadSnapshotSegment(in).clean());
  EXPECT_TRUE(oracle.plan(req).cacheHit);
}

TEST(SnapshotTest, VersionMismatchRefusesTheWholeFile) {
  PlanCache restored(64, 4);
  std::istringstream future("pushpart-plancache v4\nentries 0\n");
  EXPECT_TRUE(tryLoadPlanCacheSnapshot(restored, future).versionRefused);
  std::istringstream garbage("not a snapshot at all\n");
  EXPECT_TRUE(tryLoadPlanCacheSnapshot(restored, garbage).versionRefused);
  EXPECT_EQ(restored.counters().entries, 0u);
}

TEST(SnapshotTest, TryLoadReportsVersionRefusalWithoutThrowing) {
  // The serving path (oracle warm start, CLI --snapshot) must survive a bad
  // snapshot file: the try-variant reports the refusal instead of throwing,
  // and the cache stays untouched.
  PlanCache restored(64, 4);
  std::istringstream future("pushpart-plancache v4\nentries 0\n");
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, future);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.versionRefused);
  EXPECT_NE(report.error.find("unsupported snapshot version"),
            std::string::npos);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(restored.counters().entries, 0u);
}

TEST(SnapshotTest, TryLoadReportsAnUnreadablePathWithoutThrowing) {
  PlanCache restored(64, 4);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(
      restored, testing::TempDir() + "/pushpart_no_such_file.snap");
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.versionRefused);  // unreadable, not wrong-version
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(restored.counters().entries, 0u);
}

TEST(SnapshotTest, TryLoadOfAGoodSnapshotMatchesTheThrowingVariant) {
  PlanCache cache(64, 4);
  populate(cache, 3);
  std::ostringstream os;
  savePlanCacheSnapshot(cache, os);
  PlanCache restored(64, 4);
  std::istringstream in(os.str());
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, in);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(restored.counters().entries, 3u);
}

TEST(SnapshotTest, SegmentRoundTripsAnArbitraryEntrySubset) {
  // A rebalance segment is a complete snapshot document over a hand-picked
  // entry subset — loaded through the ordinary corruption-checked path.
  PlanCache cache(64, 4);
  populate(cache, 6);
  std::vector<PlanCache::SnapshotEntry> all = cache.exportEntries();
  ASSERT_EQ(all.size(), 6u);
  const std::vector<PlanCache::SnapshotEntry> subset(all.begin(),
                                                     all.begin() + 2);

  std::ostringstream wire;
  EXPECT_EQ(savePlanCacheSegment(subset, wire), 2u);
  PlanCache receiver(64, 4);
  std::istringstream in(wire.str());
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(receiver, in);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(receiver.counters().entries, 2u);
  for (const PlanCache::SnapshotEntry& entry : subset) {
    const auto exported = receiver.exportEntries();
    EXPECT_TRUE(std::any_of(exported.begin(), exported.end(),
                            [&](const PlanCache::SnapshotEntry& got) {
                              return got.key == entry.key &&
                                     got.answer == entry.answer;
                            }))
        << "segment entry " << entry.key << " missing after transfer";
  }
}

TEST(SnapshotTest, PathRoundTripViaAtomicRename) {
  const std::string path =
      testing::TempDir() + "/pushpart_snapshot_test.snap";
  PlanCache cache(64, 4);
  populate(cache, 3);
  EXPECT_EQ(savePlanCacheSnapshot(cache, path), 3u);
  PlanCache restored(64, 4);
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(restored, path);
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(report.skipped, 0u);
  std::remove(path.c_str());
  EXPECT_FALSE(tryLoadPlanCacheSnapshot(restored, path).ok());
}

// End to end through the Oracle: a snapshot-warmed oracle serves its first
// request for a restored key as a cache hit, bit-identical to the answer
// the original oracle computed cold.
TEST(SnapshotTest, WarmedOracleServesRestoredKeysAsHits) {
  const std::string path = testing::TempDir() + "/pushpart_oracle_warm.snap";
  PlanRequest req;
  req.n = 40;
  req.tier = PlanTier::kSearch;
  req.searchRuns = 2;

  Oracle original(OracleOptions{});
  const PlanResponse cold = original.plan(req);
  EXPECT_FALSE(cold.cacheHit);
  ASSERT_GT(original.saveSnapshot(path), 0u);

  Oracle restarted(OracleOptions{});
  const SnapshotLoadReport report = restarted.tryLoadSnapshot(path);
  EXPECT_GE(report.loaded, 1u);
  const PlanResponse warm = restarted.plan(req);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.answer, cold.answer);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pushpart
