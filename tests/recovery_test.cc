// Crash-recovery tests for the durability layer (serve/wal.h,
// serve/recovery.h, RefreshDriver::EnableDurability): snapshot
// persist/load round trips with corruption fallback, the score-section
// decoder (bit-identical round trips, sections that do not fit the pair
// space, a cut-and-flip loop, version-1 text snapshots), WAL-tail replay
// equivalence against a from-scratch recompute at 1e-12, torn-tail
// truncation through the full recovery path, and a fork()-based abort
// matrix that crashes the process at every serve-path failpoint site
// mid-burst and verifies that every acknowledged edit survives.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "core/fsim_engine.h"
#include "core/scores_io.h"
#include "datasets/dataset_registry.h"
#include "graph/binary_io.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "serve/recovery.h"
#include "serve/refresh.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "tests/test_graphs.h"

namespace fsim {
namespace {

/// The serving suite's 5-node two-label graph (serve_test.cc), small
/// enough that tight-tolerance fixpoint solves are instant.
Graph MakeServeGraph() {
  GraphBuilder builder;
  builder.AddNode("A");  // 0
  builder.AddNode("A");  // 1
  builder.AddNode("B");  // 2
  builder.AddNode("B");  // 3
  builder.AddNode("A");  // 4
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 0);
  builder.AddEdge(1, 3);
  return std::move(builder).BuildOrDie();
}

/// Tolerances an order of magnitude under the 1e-12 acceptance bound, so
/// incremental repair + replay stays within it against a full recompute.
FSimConfig TightConfig() {
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-14;
  return config;
}

IncrementalOptions TightIncOptions() {
  IncrementalOptions options;
  options.propagation_tolerance = 1e-14;
  return options;
}

/// The fixed 8-edit burst of the crash matrix: all-distinct edges so the
/// acknowledged prefix maps one-to-one onto edge presence after recovery.
std::vector<EditOp> BurstEdits() {
  return {
      {1, 0, 3, /*insert=*/true, 0},  {2, 1, 0, /*insert=*/true, 0},
      {1, 2, 3, /*insert=*/false, 0}, {1, 4, 2, /*insert=*/true, 0},
      {2, 3, 4, /*insert=*/false, 0}, {2, 2, 0, /*insert=*/true, 0},
      {1, 0, 2, /*insert=*/false, 0}, {1, 3, 1, /*insert=*/true, 0},
  };
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/fsim_recovery_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Recovers `dir` and builds a durable driver over the recovered state,
/// mirroring FSimService::Create's wiring. Init is left to the caller.
std::unique_ptr<RefreshDriver> OpenDurableDriver(const std::string& dir,
                                                 SnapshotStore* store,
                                                 DurabilityOptions durability,
                                                 RecoveredState* out = nullptr) {
  // Copies of one graph share a LabelDict, as the engines require.
  const Graph base = MakeServeGraph();
  auto recovered = RecoverServeState(dir, base, base);
  if (!recovered.ok()) return nullptr;
  auto driver = std::make_unique<RefreshDriver>(
      std::move(recovered->g1), std::move(recovered->g2), TightConfig(),
      TightIncOptions(), RefreshPolicy{}, store);
  durability.dir = dir;
  if (out != nullptr) {
    out->have_snapshot = recovered->have_snapshot;
    out->snapshot_lsn = recovered->snapshot_lsn;
    out->next_lsn = recovered->next_lsn;
    out->torn_bytes = recovered->torn_bytes;
    out->snapshots_discarded = recovered->snapshots_discarded;
    out->tail = recovered->tail;
  }
  if (!driver->EnableDurability(durability, std::move(*recovered)).ok()) {
    return nullptr;
  }
  return driver;
}

/// The published snapshot must match a from-scratch recompute of the
/// driver's current graphs within `tol` on every surviving pair.
void ExpectPublishedMatchesRecompute(const RefreshDriver& driver,
                                     const SnapshotStore& store, double tol) {
  auto full =
      ComputeFSim(driver.MaterializeG1(), driver.MaterializeG2(), TightConfig());
  ASSERT_TRUE(full.ok()) << full.status().message();
  const SnapshotPtr snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  for (size_t i = 0; i < full->keys().size(); ++i) {
    const NodeId u = PairFirst(full->keys()[i]);
    const NodeId v = PairSecond(full->keys()[i]);
    EXPECT_NEAR(snap->PairScore(u, v), full->values()[i], tol)
        << "pair (" << u << ", " << v << ")";
  }
}

void ExpectBitIdentical(const FSimScores& got, const FSimScores& want) {
  ASSERT_EQ(got.values().size(), want.values().size());
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        want.values().size() * sizeof(double)),
            0);
}

/// The version-2 score section of `scores`.
std::string SectionOf(const FSimScores& scores) {
  std::string section;
  AppendScoreSection(scores, &section);
  return section;
}

/// Six pairs, (0, 0) .. (1, 2), with distinct scores.
FSimScores SixPairScores() {
  return FSimScores(testing::FullPairSpace(2, 3),
                    {0.0, 0.125, 0.25, 0.5, 0.75, 1.0}, FSimStats{});
}

void ExpectDecodeFails(std::string_view section,
                       const std::shared_ptr<const PairSpace>& space,
                       const std::string& what) {
  const Status status = DecodeScoreSection(2, section, space).status();
  EXPECT_TRUE(status.IsIOError()) << what << ": " << status.ToString();
}

TEST(SnapshotPersistTest, PersistLoadRoundTripAndRetention) {
  const std::string dir = FreshDir("roundtrip");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSim(g, g, TightConfig());
  ASSERT_TRUE(scores.ok());

  auto written = PersistSnapshot(dir, 7, g, g, *scores);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written,
            std::filesystem::file_size(dir +
                                       "/snap-00000000000000000007.fsnap"));
  auto loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->lsn, 7u);
  EXPECT_EQ(loaded->discarded, 0u);
  EXPECT_EQ(loaded->g1.NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded->g1.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded->scores.version, 2u);
  auto loaded_scores = DecodeScoreSection(
      loaded->scores.version, loaded->scores.bytes(), scores->space());
  ASSERT_TRUE(loaded_scores.ok()) << loaded_scores.status().ToString();
  ASSERT_EQ(loaded_scores->keys(), scores->keys());
  ExpectBitIdentical(*loaded_scores, *scores);

  // A newer snapshot wins; retention keeps the newest `keep`.
  ASSERT_TRUE(PersistSnapshot(dir, 9, g, g, *scores).ok());
  loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->lsn, 9u);

  auto oldest = OldestSnapshotLsn(dir);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(*oldest, 7u);

  auto removed = RemoveObsoleteSnapshots(dir, 1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  oldest = OldestSnapshotLsn(dir);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(*oldest, 9u);
}

TEST(SnapshotPersistTest, CorruptNewestSnapshotFallsBackToOlder) {
  const std::string dir = FreshDir("corrupt_snap");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSim(g, g, TightConfig());
  ASSERT_TRUE(scores.ok());
  ASSERT_TRUE(PersistSnapshot(dir, 3, g, g, *scores).ok());
  ASSERT_TRUE(PersistSnapshot(dir, 5, g, g, *scores).ok());

  // Flip a payload byte deep inside the newest snapshot.
  const std::string victim = dir + "/snap-00000000000000000005.fsnap";
  ASSERT_TRUE(std::filesystem::exists(victim));
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(64);
    f.write(&byte, 1);
  }

  auto loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->lsn, 3u);
  EXPECT_EQ(loaded->discarded, 1u);

  // Corrupting the survivor too leaves nothing: NotFound, and full
  // recovery falls back to the base graphs.
  const std::string older = dir + "/snap-00000000000000000003.fsnap";
  {
    std::fstream f(older, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    char byte = 0;
    f.seekg(32);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(32);
    f.write(&byte, 1);
  }
  EXPECT_TRUE(LoadLatestSnapshot(dir).status().IsNotFound());
  // Copies of one graph share a LabelDict, as the engines require.
  const Graph base = MakeServeGraph();
  auto recovered = RecoverServeState(dir, base, base);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->have_snapshot);
  EXPECT_EQ(recovered->snapshots_discarded, 2u);
}

// Persist + load + decode keeps every value bit for bit: converged yeast
// scores under b at θ = 1 and s at θ = 0 (where the slot of (u, v) is
// u·|V2| + v), and a subnormal.
TEST(SnapshotPersistTest, BinarySectionRoundTripsBitIdentical) {
  const std::string dir = FreshDir("bit_identical");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const Graph yeast = MakeDatasetByName("yeast");
  FSimConfig b_theta1;
  b_theta1.variant = SimVariant::kBi;
  b_theta1.theta = 1.0;
  FSimConfig s_theta0;
  s_theta0.variant = SimVariant::kSimple;
  s_theta0.theta = 0.0;
  s_theta0.max_iterations = 3;  // real, unconverged scores: enough here
  uint64_t lsn = 0;
  for (const FSimConfig& config : {b_theta1, s_theta0}) {
    SCOPED_TRACE(config.theta);
    auto scores = ComputeFSim(yeast, yeast, config);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    ++lsn;
    ASSERT_TRUE(PersistSnapshot(dir, lsn, yeast, yeast, *scores).ok());
    auto loaded = LoadLatestSnapshot(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->lsn, lsn);
    auto space = PairSpace::Of(loaded->g1, loaded->g2, config);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    if (config.theta == 0.0) {
      const NodeId n2 = static_cast<NodeId>(yeast.NumNodes());
      ASSERT_EQ((*space)->size(), size_t{n2} * n2);
      EXPECT_EQ((*space)->Find(3, 7), 3 * n2 + 7);
      EXPECT_EQ((*space)->Find(n2 - 1, n2 - 1), size_t{n2} * n2 - 1);
    }
    auto decoded = DecodeScoreSection(loaded->scores.version,
                                      loaded->scores.bytes(), *space);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->keys(), scores->keys());
    ExpectBitIdentical(*decoded, *scores);
  }

  const auto space = testing::FullPairSpace(1, 3);
  const FSimScores tiny(space,
                        {std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min() / 3, 1.0},
                        FSimStats{});
  auto decoded = DecodeScoreSection(2, SectionOf(tiny), space);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitIdentical(*decoded, tiny);
}

// A section whose count, length or key digest does not fit the space, or
// that holds a value outside [0, 1], is an IOError.
TEST(SnapshotPersistTest, SectionThatDoesNotFitIsAnIOError) {
  const FSimScores scores = SixPairScores();
  const std::shared_ptr<const PairSpace>& space = scores.space();
  const std::string section = SectionOf(scores);
  ASSERT_EQ(section.size(), 16u + 6 * 8);
  ASSERT_TRUE(DecodeScoreSection(2, section, space).ok());

  auto with_count = [&](uint64_t count) {
    std::string patched = section;
    std::memcpy(patched.data(), &count, 8);
    return patched;
  };
  ExpectDecodeFails(with_count(5), space, "count 5");
  ExpectDecodeFails(with_count(7), space, "count 7");
  // Rejected on the count alone, before anything is sized by it.
  ExpectDecodeFails(with_count(uint64_t{1} << 63), space, "count 2^63");
  ExpectDecodeFails(section.substr(0, section.size() - 1), space,
                    "one byte short");
  ExpectDecodeFails(section + '\0', space, "one byte long");

  // Same count, other keys: (0, 0) .. (2, 1).
  const auto other = testing::FullPairSpace(3, 2);
  ASSERT_EQ(other->size(), space->size());
  const Status digest = DecodeScoreSection(2, section, other).status();
  EXPECT_TRUE(digest.IsIOError()) << digest.ToString();
  EXPECT_NE(digest.message().find("digest"), std::string::npos)
      << digest.ToString();

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           1.0000001, -1e-300}) {
    std::string patched = section;
    std::memcpy(patched.data() + 16 + 3 * 8, &bad, 8);
    ExpectDecodeFails(patched, space, StrFormat("value %g", bad));
  }

  EXPECT_TRUE(DecodeScoreSection(3, section, space).status().IsIOError());
  EXPECT_TRUE(DecodeScoreSection(0, section, space).status().IsIOError());
}

// The decoder alone, without the snapshot checksum in front of it: every
// cut through the header and the first value, and a flipped byte at every
// header offset, ends in an IOError.
TEST(SnapshotPersistTest, DecoderRejectsEveryCutAndHeaderFlip) {
  const FSimScores scores = SixPairScores();
  const std::string section = SectionOf(scores);
  for (size_t cut = 0; cut < 16 + 8; ++cut) {
    ExpectDecodeFails(section.substr(0, cut), scores.space(),
                      StrFormat("cut at %zu", cut));
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (const int mask : {0x01, 0x80, 0xff}) {
      std::string flipped = section;
      flipped[offset] = static_cast<char>(flipped[offset] ^ mask);
      ExpectDecodeFails(flipped, scores.space(),
                        StrFormat("flip 0x%02x at %zu", mask, offset));
    }
  }
}

// A version-1 snapshot (score section in core/scores_io.h text) written
// before the binary section still recovers and warm-seeds with the values
// written.
TEST(RecoveryTest, Version1SnapshotStillWarmSeeds) {
  const std::string dir = FreshDir("v1_snapshot");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSim(g, g, TightConfig());
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();

  auto append_u64 = [](std::string* out, uint64_t v) {
    out->append(reinterpret_cast<const char*>(&v), 8);
  };
  auto append_blob = [&](std::string* out, const std::string& blob) {
    append_u64(out, blob.size());
    out->append(blob);
  };
  std::string bytes = "FSIMSNP1";
  const uint32_t version = 1;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  append_u64(&bytes, 3);  // lsn
  append_blob(&bytes, GraphToBinary(g));
  append_blob(&bytes, GraphToBinary(g));
  append_blob(&bytes, ScoresToString(*scores));
  append_u64(&bytes, HashBytes(bytes.data() + 8, bytes.size() - 8));
  {
    std::ofstream out(dir + "/snap-00000000000000000003.fsnap",
                      std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  auto loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->scores.version, 1u);

  SnapshotStore store;
  DurabilityOptions durability;
  durability.snapshot_every_edits = 0;
  RecoveredState seen;
  auto driver = OpenDurableDriver(dir, &store, durability, &seen);
  ASSERT_NE(driver, nullptr);
  EXPECT_TRUE(seen.have_snapshot);
  EXPECT_EQ(seen.snapshot_lsn, 3u);
  EXPECT_EQ(seen.next_lsn, 4u);
  // EnableDurability published the decoded scores as the warm snapshot.
  const SnapshotPtr warm = store.Acquire();
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->meta().warm_start);
  ASSERT_EQ(warm->scores().keys(), scores->keys());
  for (size_t i = 0; i < scores->values().size(); ++i) {
    EXPECT_EQ(warm->scores().values()[i], scores->values()[i]);
  }

  // The boot snapshot Init persists is version 2, and its size is what
  // the driver reports.
  ASSERT_TRUE(driver->Init().ok());
  const RefreshDriver::Stats stats = driver->stats();
  EXPECT_EQ(stats.snapshot_persists, 1u);
  EXPECT_EQ(stats.last_snapshot_bytes,
            std::filesystem::file_size(dir +
                                       "/snap-00000000000000000003.fsnap"));
  EXPECT_EQ(obs::Registry::Default()
                .GetGauge("fsim_snapshot_bytes",
                          "Size of the last durable snapshot written")
                ->Value(),
            static_cast<double>(stats.last_snapshot_bytes));
  loaded = LoadLatestSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->scores.version, 2u);
}

TEST(RecoveryTest, CleanRestartReplaysWalTailWithin1e12) {
  const std::string dir = FreshDir("clean_restart");
  DurabilityOptions durability;
  durability.snapshot_every_edits = 0;  // force pure WAL replay

  SnapshotStore store_a;
  auto driver_a = OpenDurableDriver(dir, &store_a, durability);
  ASSERT_NE(driver_a, nullptr);
  { const Status init = driver_a->Init();
    ASSERT_TRUE(init.ok()) << init.message(); }
  const std::vector<EditOp> edits = BurstEdits();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(driver_a->Submit(edits[i]).ok());
  }
  ASSERT_TRUE(driver_a->Flush().ok());
  const SnapshotPtr final_a = store_a.Acquire();
  ASSERT_NE(final_a, nullptr);
  EXPECT_EQ(driver_a->stats().durable_lsn, 4u);
  driver_a.reset();  // clean shutdown

  // Restart: no snapshot exists, so the whole tail replays during Init.
  SnapshotStore store_b;
  RecoveredState seen;
  auto driver_b = OpenDurableDriver(dir, &store_b, durability, &seen);
  ASSERT_NE(driver_b, nullptr);
  // Init persists a boot snapshot at LSN 0, so recovery sees it plus the
  // whole edit tail — all four edits still replay through the engine.
  EXPECT_TRUE(seen.have_snapshot);
  EXPECT_EQ(seen.snapshot_lsn, 0u);
  EXPECT_EQ(seen.tail.size(), 4u);
  EXPECT_EQ(seen.next_lsn, 5u);
  EXPECT_EQ(seen.torn_bytes, 0u);
  { const Status init = driver_b->Init();
    ASSERT_TRUE(init.ok()) << init.message(); }
  const RefreshDriver::Stats stats = driver_b->stats();
  EXPECT_EQ(stats.edits_replayed, 4u);
  EXPECT_EQ(stats.applied_lsn, 4u);

  ExpectPublishedMatchesRecompute(*driver_b, store_b, 1e-12);

  // The republished state equals the pre-crash published state.
  const SnapshotPtr final_b = store_b.Acquire();
  ASSERT_EQ(final_a->scores().keys(), final_b->scores().keys());
  for (size_t i = 0; i < final_a->scores().values().size(); ++i) {
    EXPECT_NEAR(final_b->scores().values()[i], final_a->scores().values()[i],
                1e-12);
  }

  // The resumed WAL continues the sequence.
  ASSERT_TRUE(driver_b->Submit(edits[4]).ok());
  EXPECT_EQ(driver_b->stats().durable_lsn, 5u);
}

TEST(RecoveryTest, SnapshotPlusTailRecoveryWithin1e12) {
  const std::string dir = FreshDir("snap_tail");
  DurabilityOptions durability;
  durability.snapshot_every_edits = 2;

  SnapshotStore store_a;
  auto driver_a = OpenDurableDriver(dir, &store_a, durability);
  ASSERT_NE(driver_a, nullptr);
  { const Status init = driver_a->Init();
    ASSERT_TRUE(init.ok()) << init.message(); }
  for (const EditOp& op : BurstEdits()) {
    ASSERT_TRUE(driver_a->Submit(op).ok());
  }
  ASSERT_TRUE(driver_a->Flush().ok());
  EXPECT_GE(driver_a->stats().snapshot_persists, 1u);
  EXPECT_GE(driver_a->stats().persisted_lsn, 1u);
  driver_a.reset();

  SnapshotStore store_b;
  RecoveredState seen;
  auto driver_b = OpenDurableDriver(dir, &store_b, durability, &seen);
  ASSERT_NE(driver_b, nullptr);
  EXPECT_TRUE(seen.have_snapshot);
  EXPECT_GE(seen.snapshot_lsn, 1u);
  EXPECT_EQ(seen.next_lsn, 9u);
  { const Status init = driver_b->Init();
    ASSERT_TRUE(init.ok()) << init.message(); }
  EXPECT_EQ(driver_b->stats().applied_lsn, 8u);
  ExpectPublishedMatchesRecompute(*driver_b, store_b, 1e-12);
}

// A snapshot persisted under θ = 1 does not fit the θ = 0.5 candidate space
// (edit-distance labels "ab" and "ac" are 0.5-similar): recovery under
// θ = 0.5 keeps its graphs and LSN as the floor and replays the WAL tail,
// but neither serves nor seeds its scores, and converges to a cold solve.
TEST(RecoveryTest, SnapshotUnderOtherThetaRecoversColdFromItsFloor) {
  const std::string dir = FreshDir("other_theta");
  GraphBuilder builder;
  for (const char* label : {"ab", "ab", "ac", "ac", "ab"}) {
    builder.AddNode(label);
  }
  for (const auto& [from, to] : {std::pair<NodeId, NodeId>{0, 2}, {1, 2},
                                {2, 3}, {3, 4}, {4, 0}, {1, 3}}) {
    builder.AddEdge(from, to);
  }
  const Graph g = std::move(builder).BuildOrDie();
  auto config_at = [](double theta) {
    FSimConfig config = TightConfig();
    config.label_sim = LabelSimKind::kEditDistance;
    config.theta = theta;
    return config;
  };
  ServeOptions options;
  options.background_refresh = false;
  options.incremental = TightIncOptions();
  options.durability.dir = dir;
  options.durability.snapshot_every_edits = 0;  // the boot snapshot only

  const std::vector<EditOp> edits = BurstEdits();
  {
    auto service = FSimService::Create(g, g, config_at(1.0), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*service)->driver().Submit(edits[i]).ok());
    }
    ASSERT_TRUE((*service)->driver().Flush().ok());
  }

  auto service = FSimService::Create(g, g, config_at(0.5), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RefreshDriver& driver = (*service)->driver();
  EXPECT_EQ(driver.stats().edits_replayed, 4u);
  EXPECT_EQ(driver.stats().applied_lsn, 4u);
  // Only the solve published: no warm_start snapshot came first.
  const SnapshotPtr snap = (*service)->store().Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_FALSE(snap->meta().warm_start);
  EXPECT_EQ(snap->meta().version, 1u);
  // The replayed graphs carry the tail: edit 0 inserted 0 -> 3 in g1.
  const Graph g1 = driver.MaterializeG1();
  const auto out0 = g1.OutNeighbors(0);
  EXPECT_NE(std::find(out0.begin(), out0.end(), NodeId{3}), out0.end());
  auto cold = ComputeFSim(g1, driver.MaterializeG2(), config_at(0.5));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(snap->scores().keys(), cold->keys());
  for (size_t i = 0; i < cold->values().size(); ++i) {
    EXPECT_NEAR(snap->scores().values()[i], cold->values()[i], 1e-12);
  }
}

TEST(RecoveryTest, TornWalTailIsTruncatedAndReplayStops) {
  const std::string dir = FreshDir("torn_tail");
  DurabilityOptions durability;
  durability.snapshot_every_edits = 0;

  SnapshotStore store_a;
  auto driver_a = OpenDurableDriver(dir, &store_a, durability);
  ASSERT_NE(driver_a, nullptr);
  { const Status init = driver_a->Init();
    ASSERT_TRUE(init.ok()) << init.message(); }
  const std::vector<EditOp> edits = BurstEdits();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(driver_a->Submit(edits[i]).ok());
  }
  ASSERT_TRUE(driver_a->Flush().ok());
  driver_a.reset();

  // Simulate a crash mid-append: garbage bytes at the newest segment tail.
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (StartsWith(name, "wal-") && name > newest) newest = name;
  }
  ASSERT_FALSE(newest.empty());
  {
    std::ofstream f(dir + "/" + newest,
                    std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00torn!", 9);
  }

  SnapshotStore store_b;
  RecoveredState seen;
  auto driver_b = OpenDurableDriver(dir, &store_b, durability, &seen);
  ASSERT_NE(driver_b, nullptr);
  EXPECT_EQ(seen.torn_bytes, 9u);
  EXPECT_EQ(seen.tail.size(), 3u);
  EXPECT_EQ(seen.next_lsn, 4u);
  { const Status init = driver_b->Init();
    ASSERT_TRUE(init.ok()) << init.message(); }
  EXPECT_EQ(driver_b->stats().edits_replayed, 3u);
  ExpectPublishedMatchesRecompute(*driver_b, store_b, 1e-12);

  // The truncated segment accepts appends again at the right LSN.
  ASSERT_TRUE(driver_b->Submit(edits[3]).ok());
  EXPECT_EQ(driver_b->stats().durable_lsn, 4u);
}

// ---------------------------------------------------------------------------
// The abort matrix: crash at every registered serve-path failpoint site
// while an 8-edit burst is in flight, then recover in the parent and check
// the durability contract — every edit acknowledged before the crash is
// present after recovery, and the republished scores match a from-scratch
// recompute of the recovered graphs within 1e-12.
// ---------------------------------------------------------------------------

/// Runs the burst in a forked child with `site` armed to `spec`. The child
/// acknowledges each successful Submit with one pipe byte, so the parent
/// knows exactly which edits the "client" saw committed before SIGABRT.
/// Returns the acknowledged count; `crashed` reports whether the child
/// died by abort (vs completing the burst).
size_t RunCrashChild(const std::string& dir, const std::string& site,
                     const std::string& spec, bool* crashed) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    // Child: plain syscalls + _exit only; no gtest machinery past here.
    close(fds[0]);
    SnapshotStore store;
    DurabilityOptions durability;
    durability.snapshot_every_edits = 2;
    auto driver = OpenDurableDriver(dir, &store, durability);
    if (driver == nullptr || !driver->Init().ok()) _exit(2);
    if (!failpoint::Arm(site, spec).ok()) _exit(3);
    const std::vector<EditOp> edits = BurstEdits();
    for (size_t i = 0; i < edits.size(); ++i) {
      if (driver->Submit(edits[i]).ok()) {
        const char ack = 1;
        if (write(fds[1], &ack, 1) != 1) _exit(4);
      }
      // Flush after each pair so the apply/publish/persist sites fire
      // mid-burst, not just at shutdown.
      if (i % 2 == 1) (void)driver->Flush();
    }
    _exit(0);
  }
  close(fds[1]);
  size_t acked = 0;
  char buf[16];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    acked += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  *crashed = WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
  if (!*crashed) {
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << site << ": child exited with status " << status;
  }
  return acked;
}

TEST(CrashMatrixTest, AbortAtEveryServeSiteLosesNothingAcknowledged) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (build with -DFSIM_FAILPOINTS=ON)";
  }
  const std::vector<std::string> sites = {
      "serve.queue.push",      "serve.wal.append",
      "serve.wal.sync",        "serve.refresh.apply",
      "serve.flush",           "serve.publish",
      "serve.snapshot.persist", "serve.snapshot.rename",
  };
  const std::vector<EditOp> edits = BurstEdits();
  int site_index = 0;
  for (const std::string& site : sites) {
    // "abort" crashes at the first hit; "3->abort" lets three hits pass so
    // the crash lands mid-burst with durable state already accumulated.
    for (const std::string& spec : {std::string("abort"),
                                    std::string("3->abort")}) {
      SCOPED_TRACE(site + "=" + spec);
      const std::string dir =
          FreshDir(StrFormat("matrix_%d_%s", site_index,
                             spec == "abort" ? "first" : "skip3"));
      bool crashed = false;
      const size_t acked = RunCrashChild(dir, site, spec, &crashed);
      if (spec == "abort") {
        // Every matrix site sits on the burst path, so the first-hit
        // variant must actually crash — otherwise the site went dead and
        // the matrix is vacuous.
        EXPECT_TRUE(crashed) << site << " never fired";
      }
      ASSERT_LE(acked, edits.size());

      // Parent-side recovery over the crashed directory.
      SnapshotStore store;
      DurabilityOptions durability;
      durability.snapshot_every_edits = 2;
      RecoveredState seen;
      auto driver = OpenDurableDriver(dir, &store, durability, &seen);
      ASSERT_NE(driver, nullptr);
      { const Status init = driver->Init();
        ASSERT_TRUE(init.ok()) << init.message(); }

      // Contract: each acknowledged edit's effect is present. The burst
      // uses all-distinct edges, so the i-th ack pins the i-th edge's
      // final state regardless of what else replayed.
      const Graph g1 = driver->MaterializeG1();
      const Graph g2 = driver->MaterializeG2();
      for (size_t i = 0; i < acked; ++i) {
        const Graph& g = edits[i].graph_index == 1 ? g1 : g2;
        EXPECT_EQ(g.HasEdge(edits[i].from, edits[i].to), edits[i].insert)
            << "acked edit " << i << " lost after crash at " << site;
      }
      ExpectPublishedMatchesRecompute(*driver, store, 1e-12);
    }
    ++site_index;
  }
}

}  // namespace
}  // namespace fsim
