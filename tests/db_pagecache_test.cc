// Property battery for the page/extent cache (src/db/pagecache.h).
//
// The central property: the cache budget is INVISIBLE to logical state. One
// deterministic workload runs under budgets from "effectively unbounded"
// down to "one page", and every run must end fingerprint-identical — spill
// and refault lose nothing — while the bounded runs actually evict (nonzero
// eviction/writeback counters) and settle at or under their budget. A
// corruption battery then bit-flips, truncates, and unlinks the extent spill
// files under a live database and asserts the taxonomy: reads return the
// correct row or fail with kInternal/kNotFound — never crash, never a
// silently wrong row — and a reopen (extents are wiped; snapshot + WAL are
// canonical) restores every byte. The LZ codec gets its own round-trip and
// corrupt-input property checks, and a HotCRP-scale run pins the headline
// acceptance number: a quarter-footprint budget completes bit-identical.
#include "src/db/pagecache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/hotcrp/generator.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/db/database.h"
#include "src/db/durable.h"
#include "src/sql/codec.h"
#include "src/sql/parser.h"
#include "tests/reference_match.h"

namespace edna::db {
namespace {

using sql::Value;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/edna_db_pagecache_XXXXXX";
    dir_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::string cmd = "rm -rf " + dir_;
      [[maybe_unused]] int rc = system(cmd.c_str());
    }
  }
  std::string Sub(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

// Canonical text dump of every table in RowId order. Scan faults spilled
// pages back in, so equal dumps across budgets mean the spill/refault cycle
// preserved every byte of every row.
std::string Dump(Database* db) {
  std::string out;
  for (const TableSchema& ts : db->schema().tables()) {
    out += "== " + ts.name() + "\n";
    const Table* t = db->FindTable(ts.name());
    t->Scan([&](RowId id, const Row& row) {
      out += std::to_string(id);
      for (const Value& v : row) {
        out += "|" + v.ToSqlString();
      }
      out += "\n";
    });
  }
  return out;
}

// Payloads alternate compressible (repeated alpha runs) and high-entropy
// (alnum noise) so extent frames exercise both the LZ and the raw path.
std::string PayloadFor(Rng& rng, int i) {
  if (i % 3 == 0) {
    std::string run = rng.NextAlphaString(4);
    std::string out;
    for (int k = 0; k < 20 + i % 40; ++k) {
      out += run;
    }
    return out;
  }
  return rng.NextAlnumString(40 + static_cast<size_t>(i % 80));
}

constexpr int kWorkloadRows = 400;

// Deterministic mixed workload: the statement sequence (and thus the final
// state) is a pure function of `seed`, never of the cache budget.
void RunWorkload(Database* db, uint64_t seed) {
  TableSchema items("items");
  items
      .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "num", .type = ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "payload", .type = ColumnType::kString})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db->CreateTable(std::move(items)).ok());

  Rng rng(seed);
  for (int i = 0; i < kWorkloadRows; ++i) {
    ASSERT_TRUE(db->InsertValues("items",
                                 {{"num", Value::Int(i * 7)},
                                  {"payload", Value::String(PayloadFor(rng, i))}})
                    .ok());
  }
  for (int i = 0; i < 150; ++i) {
    RowId id = 1 + static_cast<RowId>(rng.NextBounded(kWorkloadRows));
    ASSERT_TRUE(
        db->SetColumn("items", id, "num", Value::Int(static_cast<int64_t>(i) - 40)).ok());
  }
  for (int i = 0; i < 60; ++i) {
    RowId id = 1 + static_cast<RowId>(rng.NextBounded(kWorkloadRows));
    Status s = db->DeleteRow("items", id);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kNotFound) << s;
  }
}

struct RunResult {
  std::string dump;
  uint64_t footprint = 0;  // ResidentBytes() BEFORE dumping (Dump refaults)
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// Payload-free statements whose boundary gives the evictor extra rounds to
// settle at/under budget (Count with no predicate never faults a page).
void Settle(Database* db) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Count("items", nullptr, {}).ok());
  }
}

RunResult RunDurableWorkload(const std::string& dir, uint64_t budget,
                             CacheOptions::Policy policy) {
  RunResult r;
  DurableOptions opts;
  opts.cache.max_resident_bytes = budget;
  opts.cache.policy = policy;
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(dir, opts, &report);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) {
    return r;
  }
  Database* db = (*opened)->db();
  RunWorkload(db, /*seed=*/42);
  Settle(db);
  r.footprint = db->page_cache()->ResidentBytes();
  r.evictions = db->stats().page_evictions.load();
  r.writebacks = db->stats().page_writebacks.load();
  r.hits = db->stats().page_hits.load();
  r.misses = db->stats().page_misses.load();
  r.dump = Dump(db);
  return r;
}

std::string ReopenAndDump(const std::string& dir, uint64_t budget) {
  DurableOptions opts;
  opts.cache.max_resident_bytes = budget;
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(dir, opts, &report);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) {
    return "";
  }
  EXPECT_TRUE((*opened)->db()->CheckIntegrity().ok());
  return Dump((*opened)->db());
}

constexpr uint64_t kUnboundedBudget = 1ull << 30;  // 1 GiB: never evicts

TEST(PageCachePropertyTest, VectorizedScanSurvivesEvictionAndMatchesRowMode) {
  // The column sidecar must stay coherent with eviction: DropPageRows
  // invalidates the covering slabs, and a vectorized rebuild faults spilled
  // pages back in. Under a one-byte budget every statement boundary evicts,
  // so each scan rebuilds from spilled extents — and must still return
  // exactly the rows the row-at-a-time interpreter reference does.
  TempDir tmp;
  DurableOptions opts;
  opts.cache.max_resident_bytes = 1;  // always over budget: everything spills
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(tmp.Sub("vec"), opts, &report);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database* db = (*opened)->db();
  RunWorkload(db, /*seed=*/7);
  Settle(db);
  ASSERT_GT(db->stats().page_evictions.load(), 0u);

  auto pred = sql::ParseExpression("\"num\" >= 0 AND \"payload\" <> ''");
  ASSERT_TRUE(pred.ok()) << pred.status();
  auto reference = testing::ReferenceMatch(*db, "items", **pred, {});
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->empty());
  EXPECT_TRUE(testing::MatchesReference(*db, "items", **pred, {}));

  // A mutation between vectorized scans (with its own eviction round at the
  // statement boundary) must be visible to the next rebuild.
  ASSERT_TRUE(db->SetColumn("items", reference->front(), "num", Value::Int(-1000)).ok());
  auto after = db->SelectRowsWithIds("items", pred->get(), {});
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->size(), reference->size() - 1);
  EXPECT_TRUE(testing::MatchesReference(*db, "items", **pred, {}));
  EXPECT_GT(db->stats().chunks_scanned.load(), 0u);
}

TEST(PageCachePropertyTest, BudgetSweepIsFingerprintIdenticalAndBounded) {
  TempDir tmp;
  RunResult unbounded =
      RunDurableWorkload(tmp.Sub("u"), kUnboundedBudget, CacheOptions::Policy::kClock);
  ASSERT_FALSE(unbounded.dump.empty());
  ASSERT_GT(unbounded.footprint, 0u);
  EXPECT_EQ(unbounded.evictions, 0u) << "a 1 GiB budget must never evict";
  EXPECT_EQ(unbounded.misses, 0u);

  const uint64_t footprint = unbounded.footprint;
  struct Leg {
    const char* name;
    uint64_t budget;
    CacheOptions::Policy policy;
  };
  const Leg legs[] = {
      {"half", footprint / 2, CacheOptions::Policy::kClock},
      {"tenth", footprint / 10, CacheOptions::Policy::kClock},
      {"one-page", 4096, CacheOptions::Policy::kClock},
      {"tenth-2q", footprint / 10, CacheOptions::Policy::k2Q},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    std::string dir = tmp.Sub(leg.name);
    RunResult bounded = RunDurableWorkload(dir, leg.budget, leg.policy);
    EXPECT_EQ(bounded.dump, unbounded.dump)
        << "bounded run diverged from the unbounded reference";
    EXPECT_GT(bounded.evictions, 0u) << "budget below footprint but nothing evicted";
    EXPECT_GT(bounded.writebacks, 0u) << "dirty pages evicted without a frame write";
    EXPECT_GT(bounded.misses, 0u) << "nothing ever faulted back";
    EXPECT_LE(bounded.footprint, leg.budget)
        << "settled resident bytes exceed the budget";
    // Durability is budget-independent too: a bounded reopen replays
    // snapshot + WAL (extents are wiped) back to the identical state.
    EXPECT_EQ(ReopenAndDump(dir, leg.budget), unbounded.dump);
  }
}

TEST(PageCachePropertyTest, LzCodecRoundTripsAndSurvivesCorruptInput) {
  Rng rng(7);
  std::vector<std::vector<uint8_t>> inputs;
  inputs.push_back({});                                  // empty
  inputs.push_back(std::vector<uint8_t>(4096, 0));       // all zeros
  inputs.push_back(rng.NextBytes(15));                   // below raw-store floor
  inputs.push_back(rng.NextBytes(5000));                 // high entropy
  {
    std::vector<uint8_t> repeated;
    for (int i = 0; i < 300; ++i) {
      repeated.push_back(static_cast<uint8_t>("edna-extent-"[i % 12]));
    }
    inputs.push_back(std::move(repeated));
  }
  {
    std::vector<uint8_t> mixed = rng.NextBytes(1000);
    mixed.resize(3000, 0x5a);  // entropy head, compressible tail
    inputs.push_back(std::move(mixed));
  }

  bool any_compressed = false;
  for (size_t c = 0; c < inputs.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::vector<uint8_t>& in = inputs[c];
    std::vector<uint8_t> packed = LzCompress(in);
    if (packed.empty()) {
      continue;  // stored raw: nothing to round-trip
    }
    any_compressed = true;
    EXPECT_LT(packed.size(), in.size()) << "a kept compression must shrink";
    std::vector<uint8_t> out;
    Status s = LzDecompress(packed.data(), packed.size(), in.size(), &out);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_EQ(out, in);

    // Corrupt-input property: random single-byte flips and truncations must
    // yield kInternal or a full-length (possibly wrong — the extent CRC
    // catches that upstream) buffer, never a crash or out-of-bounds access.
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<uint8_t> bad = packed;
      bad[rng.NextBounded(bad.size())] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      std::vector<uint8_t> scratch;
      Status ds = LzDecompress(bad.data(), bad.size(), in.size(), &scratch);
      if (ds.ok()) {
        EXPECT_EQ(scratch.size(), in.size());
      } else {
        EXPECT_EQ(ds.code(), StatusCode::kInternal) << ds;
      }
    }
    for (size_t len = 0; len < packed.size(); len += 1 + packed.size() / 16) {
      std::vector<uint8_t> scratch;
      Status ds = LzDecompress(packed.data(), len, in.size(), &scratch);
      if (ds.ok()) {
        EXPECT_EQ(scratch.size(), in.size());
      } else {
        EXPECT_EQ(ds.code(), StatusCode::kInternal) << ds;
      }
    }
  }
  EXPECT_TRUE(any_compressed) << "no input compressed; the LZ path went untested";
}

// Compares the bounded database against a fully-resident oracle row by row,
// asserting the failure taxonomy on the way. Adds how many LIVE rows failed
// to read to `*failed_live_reads`.
void SweepAgainstOracle(Database* bounded, Database* oracle,
                        size_t* failed_live_reads) {
  for (RowId id = 1; id <= kWorkloadRows; ++id) {
    StatusOr<Row> want = oracle->GetRow("items", id);
    StatusOr<Row> got = bounded->GetRow("items", id);
    if (got.ok()) {
      // A successful read must be the TRUE row — corruption may cost
      // availability, never silently wrong data.
      ASSERT_TRUE(want.ok()) << "bounded read resurrected deleted row " << id;
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ((*got)[i].ToSqlString(), (*want)[i].ToSqlString())
            << "row " << id << " col " << i << " silently diverged";
      }
      continue;
    }
    EXPECT_TRUE(got.status().code() == StatusCode::kNotFound ||
                got.status().code() == StatusCode::kInternal)
        << "row " << id << ": unexpected failure class: " << got.status();
    if (want.ok()) {
      ++*failed_live_reads;
    }
  }
}

TEST(PageCachePropertyTest, ExtentCorruptionFailsLoudlyNeverSilently) {
  TempDir tmp;

  DurableOptions oracle_opts;
  oracle_opts.cache.max_resident_bytes = kUnboundedBudget;
  DurableOpenReport oracle_report;
  auto oracle = DurableDatabase::Open(tmp.Sub("oracle"), oracle_opts, &oracle_report);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  RunWorkload((*oracle)->db(), /*seed=*/42);
  std::string truth = Dump((*oracle)->db());

  DurableOptions opts;
  opts.cache.max_resident_bytes = 1;  // always over budget: everything spills
  DurableOpenReport report;
  std::string dir = tmp.Sub("victim");
  auto victim = DurableDatabase::Open(dir, opts, &report);
  ASSERT_TRUE(victim.ok()) << victim.status();
  Database* db = (*victim)->db();
  RunWorkload(db, /*seed=*/42);
  Settle(db);
  ASSERT_NE(db->page_cache(), nullptr);
  std::vector<std::string> files = db->page_cache()->DebugExtentFiles();
  ASSERT_FALSE(files.empty()) << "nothing spilled; the fuzz has no target";

  // Pristine sweep: every live row reads back exactly despite total spill.
  size_t pristine_failures = 0;
  SweepAgainstOracle(db, (*oracle)->db(), &pristine_failures);
  EXPECT_EQ(pristine_failures, 0u);

  // Bit-flip sweep. An always-over-budget run appends a fresh frame at
  // nearly every statement boundary, so most of each file is DEAD frames the
  // page directory no longer references — live frames cluster at the tail.
  // Each round flips one bit near the tail of EVERY extent file; flips
  // accumulate (pages refault from the same frames on every sweep), and the
  // total over all rounds must hit live data.
  Rng rng(99);
  size_t failed_reads = 0;
  for (int round = 0; round < 8; ++round) {
    for (const std::string& path : files) {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f.good()) << path;
      f.seekg(0, std::ios::end);
      auto size = static_cast<uint64_t>(f.tellg());
      ASSERT_GT(size, 0u);
      uint64_t tail = std::max<uint64_t>(size / 16, 1);
      uint64_t off = size - 1 - rng.NextBounded(tail);
      f.seekg(static_cast<std::streamoff>(off));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1 << rng.NextBounded(8)));
      f.seekp(static_cast<std::streamoff>(off));
      f.write(&byte, 1);
      f.close();
    }
    SweepAgainstOracle(db, (*oracle)->db(), &failed_reads);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(failed_reads, 0u) << "tail bit flips never hit a live frame";

  // Truncation: chop every extent file to half; tail frames become short
  // reads (kInternal), head frames keep working.
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good()) << path;
    auto size = static_cast<uint64_t>(in.tellg());
    in.close();
    ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size / 2)), 0);
  }
  size_t post_truncate_failures = 0;
  SweepAgainstOracle(db, (*oracle)->db(), &post_truncate_failures);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // Unlink: with every spill file gone, every spilled live row must fail
  // kNotFound (ENOENT) — and still never crash or fabricate data.
  for (const std::string& path : files) {
    ASSERT_EQ(unlink(path.c_str()), 0) << path;
  }
  size_t post_unlink_failures = 0;
  SweepAgainstOracle(db, (*oracle)->db(), &post_unlink_failures);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // Extents are a cache, not a durability source: reopening the mangled
  // directory wipes them and replays snapshot + WAL to the exact truth.
  victim->reset();
  EXPECT_EQ(ReopenAndDump(dir, /*budget=*/1), truth);
}

// One decoded extent frame, parsed straight from the documented version-2
// layout (docs/FORMATS.md) rather than through PageCache.
struct ParsedFrame {
  uint64_t off = 0;
  uint32_t len = 0;
  uint64_t page = 0;
  size_t rows = 0;
};

uint32_t Le32(const std::vector<uint8_t>& b, size_t at) {
  return static_cast<uint32_t>(b[at]) | (static_cast<uint32_t>(b[at + 1]) << 8) |
         (static_cast<uint32_t>(b[at + 2]) << 16) | (static_cast<uint32_t>(b[at + 3]) << 24);
}

// Walks every frame of one extent file; each must check out and decode to
// exactly one page whose payload ends where the frame ends.
std::vector<ParsedFrame> ParseExtentFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  constexpr size_t kHeader = 18;
  std::vector<ParsedFrame> frames;
  size_t off = 0;
  while (off < file.size()) {
    SCOPED_TRACE(path + " @" + std::to_string(off));
    EXPECT_GE(file.size() - off, kHeader);
    if (file.size() - off < kHeader) break;
    EXPECT_EQ(Le32(file, off), 0x584E4445u);
    EXPECT_EQ(file[off + 4], 2);
    const bool packed = (file[off + 5] & 0x01) != 0;
    const uint32_t raw_len = Le32(file, off + 6);
    const uint32_t stored_len = Le32(file, off + 10);
    const uint32_t crc = Le32(file, off + 14);
    EXPECT_LE(kHeader + stored_len, file.size() - off);
    if (kHeader + stored_len > file.size() - off) break;
    const uint8_t* stored = file.data() + off + kHeader;
    EXPECT_EQ(Crc32(stored, stored_len), crc);
    std::vector<uint8_t> raw;
    if (packed) {
      EXPECT_TRUE(LzDecompress(stored, stored_len, raw_len, &raw).ok());
    } else {
      raw.assign(stored, stored + stored_len);
    }
    sql::ByteReader reader(raw);
    ParsedFrame f;
    f.off = off;
    f.len = static_cast<uint32_t>(kHeader + stored_len);
    StatusOr<uint64_t> page = reader.U64();
    StatusOr<uint32_t> nrows = reader.U32();
    EXPECT_TRUE(page.ok() && nrows.ok());
    if (!page.ok() || !nrows.ok()) break;
    f.page = *page;
    f.rows = *nrows;
    for (uint32_t r = 0; r < *nrows; ++r) {
      EXPECT_TRUE(reader.U64().ok());
      StatusOr<uint32_t> ncols = reader.U32();
      EXPECT_TRUE(ncols.ok()) << ncols.status();
      for (uint32_t c = 0; ncols.ok() && c < *ncols; ++c) {
        EXPECT_TRUE(reader.Value().ok());
      }
    }
    EXPECT_TRUE(reader.AtEnd()) << "a frame holds more than one page";
    frames.push_back(f);
    off += f.len;
  }
  return frames;
}

TEST(PageCacheFrameTest, EveryWritebackIsOneFrameOfOnePageTheDirectoryNames) {
  TempDir tmp;
  DurableOptions opts;
  opts.cache.max_resident_bytes = 8192;  // a few pages: multi-page rounds
  DurableOpenReport report;
  auto opened = DurableDatabase::Open(tmp.Sub("frames"), opts, &report);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database* db = (*opened)->db();
  PageCache* cache = db->page_cache();
  ASSERT_NE(cache, nullptr);
  const uint64_t writebacks_before = db->stats().page_writebacks.load();
  size_t frames_before = 0;
  for (const std::string& path : cache->DebugExtentFiles()) {
    frames_before += ParseExtentFile(path).size();
  }
  RunWorkload(db, /*seed=*/42);
  Settle(db);
  const uint64_t writebacks = db->stats().page_writebacks.load() - writebacks_before;
  ASSERT_GT(writebacks, 0u);

  std::map<uint64_t, ParsedFrame> by_off;
  size_t frames = 0;
  const std::vector<std::string> files = cache->DebugExtentFiles();
  ASSERT_EQ(files.size(), 1u) << "only the items table should spill";
  for (const ParsedFrame& f : ParseExtentFile(files[0])) {
    by_off[f.off] = f;
    ++frames;
  }
  EXPECT_EQ(frames - frames_before, writebacks) << "one frame per page written back";

  // The directory points each framed page at a frame of that very page, and
  // every spilled page has one.
  const uint64_t last_page = cache->PageOf(kWorkloadRows);
  size_t spilled = 0;
  for (uint64_t page = 0; page <= last_page; ++page) {
    SCOPED_TRACE("page " + std::to_string(page));
    std::optional<PageCache::FrameRef> ref = cache->DebugPageFrame("items", page);
    const RowId first_row = page * cache->rows_per_page() + 1;
    if (!cache->DebugIsRowResident("items", first_row)) {
      ++spilled;
      ASSERT_TRUE(ref.has_value()) << "a spilled page has no frame";
    }
    if (!ref.has_value()) continue;
    EXPECT_EQ(ref->path, files[0]);
    auto it = by_off.find(ref->off);
    ASSERT_NE(it, by_off.end()) << "directory offset is not a frame boundary";
    EXPECT_EQ(it->second.len, ref->len);
    EXPECT_EQ(it->second.page, page);
  }
  EXPECT_GT(spilled, 0u);
}

// Two full pages of one table, spilled by a single eviction round: one
// statement dirties both, so its boundary writes them together.
class TwoPageRoundTest : public ::testing::Test {
 protected:
  void Spill(bool compress) {
    DurableOptions opts;
    opts.cache.max_resident_bytes = 1;  // always over budget: everything spills
    opts.cache.compress = compress;
    DurableOpenReport report;
    auto opened = DurableDatabase::Open(tmp_.Sub("two"), opts, &report);
    ASSERT_TRUE(opened.ok()) << opened.status();
    durable_ = std::move(*opened);
    db_ = durable_->db();
    cache_ = db_->page_cache();
    ASSERT_NE(cache_, nullptr);
    TableSchema items("items");
    items
        .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "num", .type = ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "payload", .type = ColumnType::kString})
        .SetPrimaryKey({"id"});
    ASSERT_TRUE(db_->CreateTable(std::move(items)).ok());
    per_page_ = cache_->rows_per_page();
    Rng rng(5);
    for (RowId id = 1; id <= 2 * per_page_; ++id) {
      payloads_[id] = PayloadFor(rng, static_cast<int>(id));
      ASSERT_TRUE(db_->InsertValues("items", {{"num", Value::Int(static_cast<int64_t>(id))},
                                              {"payload", Value::String(payloads_[id])}})
                      .ok());
    }

    const uint64_t before = db_->stats().page_writebacks.load();
    auto incr = sql::ParseExpression("\"num\" + 1000");
    ASSERT_TRUE(incr.ok()) << incr.status();
    std::vector<Assignment> assigns;
    assigns.push_back({.column = "num", .expr = std::move(*incr)});
    auto updated = db_->Update("items", nullptr, {}, assigns);
    ASSERT_TRUE(updated.ok()) << updated.status();
    ASSERT_EQ(*updated, 2 * per_page_);
    ASSERT_EQ(db_->stats().page_writebacks.load() - before, 2u);
    ASSERT_FALSE(cache_->DebugIsRowResident("items", 1));
    ASSERT_FALSE(cache_->DebugIsRowResident("items", per_page_ + 1));
    std::optional<PageCache::FrameRef> a = cache_->DebugPageFrame("items", 0);
    std::optional<PageCache::FrameRef> b = cache_->DebugPageFrame("items", 1);
    ASSERT_TRUE(a.has_value() && b.has_value());
    ASSERT_EQ(a->path, b->path);
    ASSERT_NE(a->off, b->off) << "the two pages share a frame";
    frame_a_ = *a;
  }

  // Page 1 must still read back exactly; page 0 must fail kInternal.
  void ExpectOnlyPageZeroFails() {
    for (RowId id = per_page_ + 1; id <= 2 * per_page_; ++id) {
      StatusOr<Row> row = db_->GetRow("items", id);
      ASSERT_TRUE(row.ok()) << "page 1 row " << id << ": " << row.status();
      ASSERT_EQ(row->size(), 3u);
      EXPECT_EQ((*row)[1].AsInt(), static_cast<int64_t>(id) + 1000);
      EXPECT_EQ((*row)[2].AsString(), payloads_[id]);
    }
    for (RowId id : {RowId{1}, per_page_}) {
      StatusOr<Row> row = db_->GetRow("items", id);
      ASSERT_FALSE(row.ok()) << "row " << id << " read through a bad frame";
      EXPECT_EQ(row.status().code(), StatusCode::kInternal) << row.status();
    }
  }

  TempDir tmp_;
  std::unique_ptr<DurableDatabase> durable_;
  Database* db_ = nullptr;
  PageCache* cache_ = nullptr;
  RowId per_page_ = 0;
  std::map<RowId, std::string> payloads_;
  PageCache::FrameRef frame_a_;
};

// Each page has its own CRC: corrupting one page's frame costs that page
// only, never a sibling spilled in the same round.
TEST_F(TwoPageRoundTest, CorruptFrameFailsOnlyItsOwnPage) {
  ASSERT_NO_FATAL_FAILURE(Spill(/*compress=*/true));
  std::fstream f(frame_a_.path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  // The frame's last byte lies inside its CRC-covered payload.
  const auto at = static_cast<std::streamoff>(frame_a_.off + frame_a_.len - 1);
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(at);
  f.write(&byte, 1);
  f.close();
  ExpectOnlyPageZeroFails();
}

// A well-formed frame that holds another page (valid CRC, wrong page index)
// is rejected rather than installed under the page that asked for it.
TEST_F(TwoPageRoundTest, FrameOfAnotherPageIsRejected) {
  ASSERT_NO_FATAL_FAILURE(Spill(/*compress=*/false));
  std::fstream f(frame_a_.path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  std::vector<uint8_t> frame(frame_a_.len);
  f.seekg(static_cast<std::streamoff>(frame_a_.off));
  f.read(reinterpret_cast<char*>(frame.data()), static_cast<std::streamsize>(frame.size()));
  constexpr size_t kHeader = 18;
  ASSERT_EQ(frame[5] & 0x01, 0) << "frame stored compressed despite compress=false";
  ASSERT_EQ(Le32(frame, kHeader), 0u) << "page 0's payload must start with its index";
  frame[kHeader] = 1;  // u64 page index 0 -> 1
  const uint32_t crc = Crc32(frame.data() + kHeader, frame.size() - kHeader);
  for (size_t i = 0; i < 4; ++i) {
    frame[14 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  f.seekp(static_cast<std::streamoff>(frame_a_.off));
  f.write(reinterpret_cast<const char*>(frame.data()), static_cast<std::streamsize>(frame.size()));
  f.close();
  ExpectOnlyPageZeroFails();
}

TEST(PageCachePropertyTest, HotcrpQuarterFootprintBudgetMatchesUnbounded) {
  TempDir tmp;
  hotcrp::Config config;

  auto populate = [&](const std::string& dir, uint64_t budget, RunResult* r) {
    DurableOptions opts;
    opts.cache.max_resident_bytes = budget;
    DurableOpenReport report;
    auto opened = DurableDatabase::Open(dir, opts, &report);
    ASSERT_TRUE(opened.ok()) << opened.status();
    Database* db = (*opened)->db();
    auto generated = hotcrp::Populate(db, config.Scaled(0.25));
    ASSERT_TRUE(generated.ok()) << generated.status();
    const std::string settle_table = db->schema().tables().front().name();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db->Count(settle_table, nullptr, {}).ok());
    }
    r->footprint = db->page_cache()->ResidentBytes();
    r->evictions = db->stats().page_evictions.load();
    r->writebacks = db->stats().page_writebacks.load();
    r->dump = Dump(db);
    ASSERT_TRUE(db->CheckIntegrity().ok());
  };

  RunResult unbounded;
  populate(tmp.Sub("u"), kUnboundedBudget, &unbounded);
  ASSERT_GT(unbounded.footprint, 0u);
  ASSERT_EQ(unbounded.evictions, 0u);

  const uint64_t quarter = unbounded.footprint / 4;
  RunResult bounded;
  populate(tmp.Sub("q"), quarter, &bounded);
  EXPECT_EQ(bounded.dump, unbounded.dump)
      << "quarter-budget HotCRP diverged from the unbounded reference";
  EXPECT_GT(bounded.evictions, 0u);
  EXPECT_GT(bounded.writebacks, 0u);
  EXPECT_LE(bounded.footprint, quarter)
      << "HotCRP did not settle within a quarter of its footprint";
}

}  // namespace
}  // namespace edna::db
