// Tests for whole-database serialization (db/storage): round trips, format
// robustness, FK-order independence (self-referencing tables), and saves
// that fail part-way.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/apps/lobsters/generator.h"
#include "src/db/storage.h"
#include "src/sql/parser.h"

namespace edna::db {
namespace {

using sql::Value;

// Canonical content dump used for equality.
std::string Dump(const Database& db) {
  std::string out;
  for (const TableSchema& ts : db.schema().tables()) {
    out += ts.ToCreateSql() + "\n";
    const Table* t = db.FindTable(ts.name());
    out += "auto=" + std::to_string(t->PeekAutoIncrement()) + "\n";
    t->Scan([&out](RowId id, const Row& row) {
      out += std::to_string(id) + RowToString(row) + "\n";
    });
  }
  return out;
}

void FillSmallDb(Database* dbp) {
  Database& db = *dbp;
  TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = ColumnType::kString, .nullable = false})
      .AddColumn({.name = "boss_id", .type = ColumnType::kInt, .nullable = true})
      .AddColumn({.name = "score", .type = ColumnType::kDouble, .nullable = true})
      .AddColumn({.name = "active", .type = ColumnType::kBool, .nullable = false,
                  .default_value = Value::Bool(true)})
      .AddColumn({.name = "avatar", .type = ColumnType::kBlob, .nullable = true})
      .SetPrimaryKey({"id"})
      .AddIndex("name")
      // Self-referencing FK: serialized rows can forward-reference.
      .AddForeignKey({.column = "boss_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = FkAction::kSetNull});
  EXPECT_TRUE(db.CreateTable(std::move(users)).ok());
  // Row 1 references row 2 (forward reference when loading in id order).
  EXPECT_TRUE(db.Insert("users", {Value::Null(), Value::String("a"), Value::Null(),
                                  Value::Double(1.5), Value::Bool(true),
                                  Value::Blob({1, 2})})
                  .ok());
  EXPECT_TRUE(db.Insert("users", {Value::Null(), Value::String("b"), Value::Null(),
                                  Value::Null(), Value::Bool(false), Value::Null()})
                  .ok());
  EXPECT_TRUE(db.SetColumn("users", 1, "boss_id", Value::Int(2)).ok());
}

TEST(StorageTest, RoundTripPreservesEverything) {
  Database db;
  FillSmallDb(&db);
  auto wire = SerializeDatabase(db);
  auto loaded = DeserializeDatabase(wire);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Dump(**loaded), Dump(db));
  EXPECT_TRUE((*loaded)->CheckIntegrity().ok());
}

TEST(StorageTest, AutoIncrementSurvivesEvenAfterDeletes) {
  Database db;
  FillSmallDb(&db);
  // Delete the max-id row: the counter must NOT regress on reload.
  auto pred = sql::ParseExpression("\"id\" = 2");
  ASSERT_TRUE(db.Delete("users", pred->get(), {}).ok());
  int64_t next_before = db.FindTable("users")->PeekAutoIncrement();

  auto loaded = DeserializeDatabase(SerializeDatabase(db));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->FindTable("users")->PeekAutoIncrement(), next_before);
  auto id = (*loaded)->InsertValues("users", {{"name", Value::String("c")}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*(*loaded)->GetColumn("users", *id, "id"), Value::Int(3));
}

TEST(StorageTest, LoadedDatabaseIsFullyOperational) {
  Database db;
  FillSmallDb(&db);
  auto loaded = DeserializeDatabase(SerializeDatabase(db));
  ASSERT_TRUE(loaded.ok());
  // Secondary index works.
  auto pred = sql::ParseExpression("\"name\" = 'a'");
  (*loaded)->ResetStats();
  auto rows = (*loaded)->Select("users", pred->get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ((*loaded)->stats().full_scans, 0u);
  // FK enforcement works.
  EXPECT_FALSE((*loaded)->SetColumn("users", 1, "boss_id", Value::Int(99)).ok());
}

TEST(StorageTest, CorruptionRejected) {
  Database db;
  FillSmallDb(&db);
  std::vector<uint8_t> wire = SerializeDatabase(db);

  // Bad magic.
  std::vector<uint8_t> bad = wire;
  bad[0] ^= 0xff;
  EXPECT_FALSE(DeserializeDatabase(bad).ok());

  // Truncations at various points never crash.
  for (size_t cut : std::vector<size_t>{4, 16, wire.size() / 2, wire.size() - 1}) {
    std::vector<uint8_t> truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializeDatabase(truncated).ok()) << cut;
  }

  // Trailing garbage detected.
  std::vector<uint8_t> padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(DeserializeDatabase(padded).ok());
}

TEST(StorageTest, IntegrityViolationInImageRejected) {
  Database db;
  FillSmallDb(&db);
  // Build an image whose row data dangles: remove the referenced boss row
  // from the serialized form by hand is brittle; instead serialize a valid
  // db, load it, and verify CheckIntegrity is what gates acceptance by
  // breaking a copy through BulkLoadRow.
  auto loaded = DeserializeDatabase(SerializeDatabase(db));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE((*loaded)
                  ->BulkLoadRow("users", 77,
                                Row{Value::Int(77), Value::String("x"), Value::Int(500),
                                    Value::Null(), Value::Bool(true), Value::Null()})
                  .ok());
  EXPECT_EQ((*loaded)->CheckIntegrity().code(), StatusCode::kIntegrityViolation);
}

TEST(StorageTest, FileRoundTrip) {
  Database db;
  FillSmallDb(&db);
  std::string path = ::testing::TempDir() + "/edna_storage_test.edb";
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Dump(**loaded), Dump(db));
  std::remove(path.c_str());
  EXPECT_EQ(LoadDatabaseFromFile(path).status().code(), StatusCode::kNotFound);
}

// Property: no prefix of a valid image deserializes. Every cut point must
// fail with a clean status — short reads can't produce a partial database.
TEST(StorageTest, EveryTruncationPointRejectedCleanly) {
  Database db;
  FillSmallDb(&db);
  std::vector<uint8_t> wire = SerializeDatabase(db);
  ASSERT_GT(wire.size(), 16u);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<uint8_t> truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    auto loaded = DeserializeDatabase(truncated);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes deserialized";
  }
}

// Property: flipping any single byte is either detected (the whole-image
// checksum gates acceptance) or — never — silently changes the content.
TEST(StorageTest, EverySingleByteFlipDetected) {
  Database db;
  FillSmallDb(&db);
  std::vector<uint8_t> wire = SerializeDatabase(db);
  std::string pristine = Dump(db);
  // 0x01 can turn the version byte into the legacy (pre-checksum) format id,
  // so the sweep also proves misparsing an image under the wrong version
  // never yields different content.
  for (uint8_t mask : {uint8_t{0x20}, uint8_t{0x01}}) {
    for (size_t i = 0; i < wire.size(); ++i) {
      std::vector<uint8_t> flipped = wire;
      flipped[i] ^= mask;
      auto loaded = DeserializeDatabase(flipped);
      if (loaded.ok()) {
        EXPECT_EQ(Dump(**loaded), pristine)
            << "flip of byte " << i << " with mask " << int(mask)
            << " loaded with different content";
      }
    }
  }
}

TEST(StorageTest, FullLobstersDatabaseRoundTrips) {
  Database db;
  lobsters::Config config;
  config.num_users = 40;
  config.num_stories = 60;
  config.num_comments = 150;
  config.num_votes = 200;
  auto gen = lobsters::Populate(&db, config);
  ASSERT_TRUE(gen.ok()) << gen.status();
  auto loaded = DeserializeDatabase(SerializeDatabase(db));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Dump(**loaded), Dump(db));
  EXPECT_TRUE((*loaded)->CheckIntegrity().ok());
}

// FNV-1a 64 over a serialized image, as 16 hex digits.
std::string ImageDigest(const std::vector<uint8_t>& image) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : image) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// The image format is a contract with every saved .edb and checkpoint: a
// fixed database must serialize to the same bytes across changes to how the
// image is built. The digest was measured before the body and header were
// written into one buffer.
TEST(StorageTest, ImageBytesArePinned) {
  // Every value type, a default and a self-referencing FK...
  Database small;
  FillSmallDb(&small);
  const std::vector<uint8_t> small_image = SerializeDatabase(small);
  EXPECT_EQ(ImageDigest(small_image), "0639836e2fe0a815") << "size " << small_image.size();

  // ...and a multi-table application database.
  Database app;
  lobsters::Config config;
  config.num_users = 40;
  config.num_stories = 60;
  config.num_comments = 150;
  config.num_votes = 200;
  ASSERT_TRUE(lobsters::Populate(&app, config).ok());
  const std::vector<uint8_t> app_image = SerializeDatabase(app);
  EXPECT_EQ(ImageDigest(app_image), "605f7ccaf3488230") << "size " << app_image.size();
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// A save that dies part-way through (here: the file-size limit, as a full
// disk would) must leave the image it was replacing loadable and unchanged,
// and must not leave its temp file behind.
TEST(StorageTest, FailedSaveLeavesThePreviousImageIntact) {
  Database small;
  FillSmallDb(&small);
  const std::string path =
      ::testing::TempDir() + "/edna_failed_save_" + std::to_string(::getpid()) + ".edb";
  ASSERT_TRUE(SaveDatabaseToFile(small, path).ok());
  const std::vector<char> before = FileBytes(path);
  ASSERT_FALSE(before.empty());

  Database big;
  lobsters::Config config;
  config.num_users = 40;
  config.num_stories = 60;
  config.num_comments = 150;
  config.num_votes = 200;
  ASSERT_TRUE(lobsters::Populate(&big, config).ok());
  const size_t big_size = SerializeDatabase(big).size();
  ASSERT_GT(big_size, 2 * before.size());

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Writes past the limit fail with EFBIG instead of raising SIGXFSZ.
    std::signal(SIGXFSZ, SIG_IGN);
    const rlim_t limit = static_cast<rlim_t>(big_size / 2);
    const struct rlimit rl = {limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &rl) != 0) {
      ::_exit(2);
    }
    ::_exit(SaveDatabaseToFile(big, path).ok() ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 1) << "the save past the file-size limit must fail";

  EXPECT_EQ(FileBytes(path), before);
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Dump(**loaded), Dump(small));
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << "temp file left behind";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edna::db
