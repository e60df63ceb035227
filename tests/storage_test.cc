// Round-trip and recovery tests for the storage subsystem: snapshots of
// Database + GroundGraph must reload bit-identically, interpreters over a
// reloaded graph must agree atom-for-atom with the never-persisted run
// (across serial and parallel grounding), and the generation store must
// publish crash-safely and recover newest-first.
#include "storage/snapshot.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "core/stable.h"
#include "core/well_founded.h"
#include "gtest/gtest.h"
#include "storage/snapshot_store.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/file_io.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using storage::LoadSnapshotFromBuffer;
using storage::ReadSnapshotInfo;
using storage::SerializeSnapshot;
using storage::SnapshotContents;
using storage::SnapshotInfo;
using storage::SnapshotReadOptions;
using storage::SnapshotStore;
using storage::SnapshotWriteOptions;
using testing_util::ExpectGraphsEqual;
using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

std::string TestTempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") + "/" + leaf;
  EXPECT_TRUE(RemoveAll(dir).ok());
  EXPECT_TRUE(CreateDir(dir).ok());
  return dir;
}

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c). move(c, d).");
  const GroundingResult g = GroundOrDie(inst);
  Result<std::string> bytes =
      SerializeSnapshot(inst.program, &inst.database, &g.graph);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  SnapshotReadOptions read;
  read.program = &inst.program;
  Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(*bytes, read);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->database.has_value());
  ASSERT_TRUE(loaded->graph.has_value());
  EXPECT_TRUE(*loaded->database == inst.database);
  ExpectGraphsEqual(*loaded->graph, g.graph);
  EXPECT_TRUE(loaded->graph->finalized());

  // Re-serializing the loaded state reproduces the exact same bytes.
  Result<std::string> again = SerializeSnapshot(
      inst.program, &*loaded->database, &*loaded->graph);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*bytes, *again);
}

TEST(SnapshotTest, DatabaseOnlyAndGraphOnly) {
  Instance inst = ParseInstance("t(X,Z) :- e(X,Y), t(Y,Z).\nt(X,Y) :- e(X,Y).",
                                "e(a, b). e(b, c).");
  const GroundingResult g = GroundOrDie(inst);

  Result<std::string> db_only =
      SerializeSnapshot(inst.program, &inst.database, nullptr);
  ASSERT_TRUE(db_only.ok());
  Result<SnapshotContents> db_loaded = LoadSnapshotFromBuffer(*db_only);
  ASSERT_TRUE(db_loaded.ok()) << db_loaded.status().ToString();
  ASSERT_TRUE(db_loaded->database.has_value());
  EXPECT_FALSE(db_loaded->graph.has_value());
  EXPECT_TRUE(*db_loaded->database == inst.database);

  Result<std::string> graph_only =
      SerializeSnapshot(inst.program, nullptr, &g.graph);
  ASSERT_TRUE(graph_only.ok());
  Result<SnapshotContents> graph_loaded = LoadSnapshotFromBuffer(*graph_only);
  ASSERT_TRUE(graph_loaded.ok()) << graph_loaded.status().ToString();
  EXPECT_FALSE(graph_loaded->database.has_value());
  ASSERT_TRUE(graph_loaded->graph.has_value());
  ExpectGraphsEqual(*graph_loaded->graph, g.graph);

  EXPECT_EQ(SerializeSnapshot(inst.program, nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, UnfinalizedGraphIsRejected) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  GroundGraph graph;  // never finalized
  EXPECT_EQ(SerializeSnapshot(inst.program, nullptr, &graph).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, InfoReportsCountsAndSections) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, a).");
  const GroundingResult g = GroundOrDie(inst);
  Result<std::string> bytes =
      SerializeSnapshot(inst.program, &inst.database, &g.graph);
  ASSERT_TRUE(bytes.ok());
  Result<SnapshotInfo> info = ReadSnapshotInfo(*bytes);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, storage::kSnapshotVersion);
  EXPECT_EQ(info->flags,
            storage::kFlagHasDatabase | storage::kFlagHasGraph);
  EXPECT_EQ(info->file_length, bytes->size());
  EXPECT_EQ(info->num_predicates, inst.program.num_predicates());
  EXPECT_EQ(info->num_atoms, g.graph.num_atoms());
  EXPECT_EQ(info->num_rule_instances, g.graph.num_rules());
  EXPECT_EQ(info->total_facts, inst.database.TotalFacts());
  EXPECT_EQ(info->sections.size(), 14u);  // meta + arities + 2 db + 10 graph
  for (const storage::SectionInfo& section : info->sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
    EXPECT_STRNE(section.name, "?");
  }
}

TEST(SnapshotTest, ProgramCrossChecksRejectMismatches) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b).");
  const GroundingResult g = GroundOrDie(inst);
  Result<std::string> bytes =
      SerializeSnapshot(inst.program, &inst.database, &g.graph);
  ASSERT_TRUE(bytes.ok());

  // A program with an extra predicate: predicate count mismatch.
  Instance other = ParseInstance(
      "win(X) :- move(X, Y), not win(Y).\nq(X) :- move(X, X).",
      "move(a, b).");
  SnapshotReadOptions read;
  read.program = &other.program;
  EXPECT_EQ(LoadSnapshotFromBuffer(*bytes, read).status().code(),
            StatusCode::kDataLoss);

  // A program with a different rule count.
  Instance fewer = ParseInstance("win(X) :- move(X, Y), not win(Y).\n"
                                 "win(X) :- move(X, X).",
                                 "move(a, b).");
  read.program = &fewer.program;
  EXPECT_EQ(LoadSnapshotFromBuffer(*bytes, read).status().code(),
            StatusCode::kDataLoss);

  // The identical program accepts it.
  read.program = &inst.program;
  EXPECT_TRUE(LoadSnapshotFromBuffer(*bytes, read).ok());
}

TEST(SnapshotTest, SaveLoadFileRoundTrip) {
  const std::string dir = TestTempDir("tiebreak_snapshot_file");
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c).");
  const GroundingResult g = GroundOrDie(inst);
  const std::string path = dir + "/state.tbs";
  ASSERT_TRUE(
      storage::SaveSnapshot(path, inst.program, &inst.database, &g.graph)
          .ok());
  Result<SnapshotContents> loaded = storage::LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded->database == inst.database);
  ExpectGraphsEqual(*loaded->graph, g.graph);
  EXPECT_EQ(storage::LoadSnapshotFile(dir + "/absent.tbs").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(RemoveAll(dir).ok());
}

// The satellite property test: random programs, serial and parallel
// grounding, all three semantics checks agree atom-for-atom between the
// in-memory graph and the reloaded one. The last four rounds draw over
// 160 constants, enough binding rows that the 8-thread grounding runs on
// the pool and interns through dense tables.
TEST(SnapshotTest, InterpretersAgreeOverReloadedGraphs) {
  Rng rng(0x57054A6E);
  for (int round = 0; round < 16; ++round) {
    RandomProgramOptions options;
    options.arity = 1;
    options.num_idb = 3;
    options.num_edb = 2;
    options.num_rules = 4 + static_cast<int>(rng.Below(5));
    options.negation_probability = 0.4;
    Program program = RandomProgram(&rng, options);
    Database database =
        *RandomEdbDatabase(&program, round < 12 ? 3 : 160, 0.4, &rng);

    for (int32_t threads : {1, 8}) {
      GroundingOptions ground_options;
      ground_options.num_threads = threads;
      Result<GroundingResult> g = Ground(program, database, ground_options);
      ASSERT_TRUE(g.ok()) << g.status().ToString();

      Result<std::string> bytes =
          SerializeSnapshot(program, &database, &g->graph);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      SnapshotReadOptions read;
      read.program = &program;
      Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(*bytes, read);
      ASSERT_TRUE(loaded.ok())
          << loaded.status().ToString() << " round " << round;
      ASSERT_TRUE(loaded->graph.has_value());

      const InterpreterResult wf = WellFounded(program, database, g->graph);
      const InterpreterResult wf_loaded =
          WellFounded(program, *loaded->database, *loaded->graph);
      ASSERT_EQ(wf.values, wf_loaded.values)
          << "well-founded disagreement, round " << round << ", threads "
          << threads;

      const InterpreterResult alt =
          reference::AlternatingFixpointWellFounded(
              program, *loaded->database, *loaded->graph);
      ASSERT_EQ(wf.values, alt.values)
          << "alternating disagreement over reloaded graph, round " << round;

      EXPECT_EQ(IsStable(program, database, g->graph, wf.values),
                IsStable(program, *loaded->database, *loaded->graph,
                         wf_loaded.values))
          << "stability disagreement, round " << round;
    }
  }
}

// The grounder interns this board's win atoms through a dense table; the
// restored store dedupes through hash tables only, and must still hold the
// same arenas and answer every Lookup with the same id.
TEST(SnapshotTest, LargerBinaryWorkloadRoundTrips) {
  Program program = WinMoveProgram();
  Rng rng(7);
  Database database =
      *RandomDigraphDatabase(&program, "move", 128, 512, &rng);
  const GroundingResult g = GroundOrDie(Instance{program, database});
  const GroundAtomStore& atoms = g.graph.atoms();
  ASSERT_EQ(atoms.dense_range(program.LookupPredicate("win")),
            program.num_constants());
  Result<std::string> bytes = SerializeSnapshot(program, &database, &g.graph);
  ASSERT_TRUE(bytes.ok());
  SnapshotReadOptions read;
  read.program = &program;
  Result<SnapshotContents> loaded = LoadSnapshotFromBuffer(*bytes, read);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded->database == database);
  ExpectGraphsEqual(*loaded->graph, g.graph);
  for (AtomId a = 0; a < atoms.size(); ++a) {
    EXPECT_EQ(loaded->graph->atoms().Lookup(atoms.PredicateOf(a),
                                            atoms.TupleOf(a)),
              a);
  }
  const InterpreterResult a = WellFounded(program, database, g.graph);
  const InterpreterResult b =
      WellFounded(program, *loaded->database, *loaded->graph);
  EXPECT_EQ(a.values, b.values);

  // The same arenas with one unary atom stored twice are corrupt.
  ASSERT_GE(atoms.size(), 2);
  ASSERT_EQ(atoms.ArityOf(0), 1);
  ASSERT_EQ(atoms.ArityOf(1), 1);
  ASSERT_EQ(atoms.PredicateOf(0), atoms.PredicateOf(1));
  std::vector<ConstId> args = testing_util::ToVector(atoms.arg_arena());
  args[atoms.arg_offsets()[1]] = args[atoms.arg_offsets()[0]];
  Result<GroundAtomStore> duplicated = GroundAtomStore::FromArenas(
      atoms.atom_predicates(), atoms.arg_offsets(),
      Span<ConstId>(args.data(), args.size()), program.num_predicates(),
      program.num_constants());
  ASSERT_FALSE(duplicated.ok());
  EXPECT_EQ(duplicated.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Resource governance.
// ---------------------------------------------------------------------------

TEST(SnapshotGovernanceTest, ByteBudgetTripsSerializeAndLoad) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c). move(c, d).");
  const GroundingResult g = GroundOrDie(inst);

  ResourceLimits limits;
  limits.max_bytes = 8;  // far below any section
  {
    ExecutionContext context(limits);
    SnapshotWriteOptions write;
    write.context = &context;
    EXPECT_EQ(SerializeSnapshot(inst.program, &inst.database, &g.graph, write)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(context.truncation().layer, "storage");
  }

  Result<std::string> bytes =
      SerializeSnapshot(inst.program, &inst.database, &g.graph);
  ASSERT_TRUE(bytes.ok());
  {
    ExecutionContext context(limits);
    SnapshotReadOptions read;
    read.context = &context;
    EXPECT_EQ(LoadSnapshotFromBuffer(*bytes, read).status().code(),
              StatusCode::kResourceExhausted);
  }
}

TEST(SnapshotGovernanceTest, CancellationObserved) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c).");
  const GroundingResult g = GroundOrDie(inst);
  Result<std::string> bytes =
      SerializeSnapshot(inst.program, &inst.database, &g.graph);
  ASSERT_TRUE(bytes.ok());

  ExecutionContext context;
  context.Cancel();
  SnapshotReadOptions read;
  read.context = &context;
  EXPECT_EQ(LoadSnapshotFromBuffer(*bytes, read).status().code(),
            StatusCode::kCancelled);
  SnapshotWriteOptions write;
  write.context = &context;
  EXPECT_EQ(SerializeSnapshot(inst.program, &inst.database, &g.graph, write)
                .status()
                .code(),
            StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Generation store.
// ---------------------------------------------------------------------------

TEST(SnapshotStoreTest, WriteListLoadLatest) {
  const std::string root = TestTempDir("tiebreak_store_basic") + "/snaps";
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c).");
  const GroundingResult g = GroundOrDie(inst);
  SnapshotStore store(root);

  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);

  for (int64_t expected = 1; expected <= 3; ++expected) {
    Result<int64_t> generation =
        store.WriteGeneration(inst.program, &inst.database, &g.graph);
    ASSERT_TRUE(generation.ok()) << generation.status().ToString();
    EXPECT_EQ(*generation, expected);
  }
  Result<std::vector<SnapshotStore::Generation>> generations =
      store.ListGenerations();
  ASSERT_TRUE(generations.ok());
  ASSERT_EQ(generations->size(), 3u);
  EXPECT_EQ((*generations)[0].number, 1);
  EXPECT_EQ((*generations)[2].number, 3);

  SnapshotReadOptions read;
  read.program = &inst.program;
  Result<SnapshotStore::LoadedGeneration> latest = store.LoadLatest(read);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->generation, 3);
  EXPECT_TRUE(latest->skipped.empty());
  EXPECT_TRUE(*latest->contents.database == inst.database);
  ExpectGraphsEqual(*latest->contents.graph, g.graph);

  for (const SnapshotStore::VerifyReport& report : store.VerifyAll(read)) {
    EXPECT_TRUE(report.status.ok()) << report.generation;
  }
  EXPECT_TRUE(RemoveAll(root).ok());
}

TEST(SnapshotStoreTest, RecoveryFallsBackPastCorruptGenerations) {
  const std::string root = TestTempDir("tiebreak_store_recover") + "/snaps";
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c).");
  const GroundingResult g = GroundOrDie(inst);
  SnapshotStore store(root);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        store.WriteGeneration(inst.program, &inst.database, &g.graph).ok());
  }

  // Corrupt generation 3's snapshot (flip one payload byte) and truncate
  // generation 2's MANIFEST mid-file.
  const std::string snap3 = root + "/gen-00000003/snapshot.tbs";
  Result<std::string> bytes = ReadFileToString(snap3);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(snap3, corrupted).ok());
  const std::string manifest2 = root + "/gen-00000002/MANIFEST";
  Result<std::string> manifest_bytes = ReadFileToString(manifest2);
  ASSERT_TRUE(manifest_bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(manifest2,
                      std::string_view(*manifest_bytes)
                          .substr(0, manifest_bytes->size() / 2))
          .ok());

  Result<SnapshotStore::LoadedGeneration> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->generation, 1);
  EXPECT_EQ(latest->skipped.size(), 2u);
  EXPECT_TRUE(*latest->contents.database == inst.database);

  // Verify reports exactly the two damaged generations.
  std::vector<SnapshotStore::VerifyReport> reports = store.VerifyAll();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[0].status.ok());
  EXPECT_FALSE(reports[1].status.ok());
  EXPECT_FALSE(reports[2].status.ok());

  // All generations corrupt -> kDataLoss with the reasons aggregated.
  const std::string snap1 = root + "/gen-00000001/snapshot.tbs";
  ASSERT_TRUE(WriteFileAtomic(snap1, "not a snapshot").ok());
  Result<SnapshotStore::LoadedGeneration> none = store.LoadLatest();
  EXPECT_EQ(none.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(RemoveAll(root).ok());
}

TEST(SnapshotStoreTest, StagingLeftoversAreIgnoredAndSwept) {
  const std::string root = TestTempDir("tiebreak_store_staging") + "/snaps";
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b).");
  const GroundingResult g = GroundOrDie(inst);
  SnapshotStore store(root);
  ASSERT_TRUE(
      store.WriteGeneration(inst.program, &inst.database, &g.graph).ok());

  // Simulate a crashed writer: a staging directory with partial contents.
  const std::string staging = root + "/.staging-gen-00000002";
  ASSERT_TRUE(CreateDir(staging).ok());
  ASSERT_TRUE(WriteFileDurable(staging + "/snapshot.tbs", "partial").ok());

  // Readers ignore it entirely.
  Result<std::vector<SnapshotStore::Generation>> generations =
      store.ListGenerations();
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(generations->size(), 1u);
  Result<SnapshotStore::LoadedGeneration> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->generation, 1);

  // The next write sweeps it and publishes generation 2 normally.
  Result<int64_t> generation =
      store.WriteGeneration(inst.program, &inst.database, &g.graph);
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 2);
  EXPECT_FALSE(PathExists(staging));
  EXPECT_TRUE(RemoveAll(root).ok());
}

TEST(SnapshotStoreTest, ForeignFilesInGenerationAreDataLoss) {
  const std::string root = TestTempDir("tiebreak_store_foreign") + "/snaps";
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b).");
  const GroundingResult g = GroundOrDie(inst);
  SnapshotStore store(root);
  ASSERT_TRUE(
      store.WriteGeneration(inst.program, &inst.database, &g.graph).ok());
  ASSERT_TRUE(
      WriteFileDurable(root + "/gen-00000001/extra.bin", "x").ok());
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(RemoveAll(root).ok());
}

}  // namespace
}  // namespace tiebreak
