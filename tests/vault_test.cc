// Unit tests for the vault subsystem: codec, reveal-record serialization,
// and all four deployment backends (table, offline, encrypted, two-tier).
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/key.h"
#include "src/sql/codec.h"
#include "src/vault/encrypted_vault.h"
#include "src/vault/offline_vault.h"
#include "src/vault/reveal_record.h"
#include "src/vault/table_vault.h"
#include "src/vault/two_tier_vault.h"

namespace edna::vault {
namespace {

using sql::Value;

// --- Codec -------------------------------------------------------------------

TEST(CodecTest, ScalarRoundTrips) {
  sql::ByteWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(2.5);
  w.String("hello");
  std::vector<uint8_t> wire = w.Take();

  sql::ByteReader r(wire);
  EXPECT_EQ(*r.U8(), 7);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.I64(), -42);
  EXPECT_EQ(*r.F64(), 2.5);
  EXPECT_EQ(*r.String(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ValueRoundTrips) {
  std::vector<Value> values{
      Value::Null(),          Value::Int(-7),         Value::Double(3.25),
      Value::Bool(true),      Value::Bool(false),     Value::String("it's"),
      Value::Blob({1, 2, 3}), Value::String(""),      Value::Int(INT64_MIN),
  };
  sql::ByteWriter w;
  for (const Value& v : values) {
    w.Value(v);
  }
  std::vector<uint8_t> wire = w.Take();
  sql::ByteReader r(wire);
  for (const Value& v : values) {
    auto back = r.Value();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncationDetected) {
  sql::ByteWriter w;
  w.String("hello");
  std::vector<uint8_t> wire = w.Take();
  wire.pop_back();
  sql::ByteReader r(wire);
  EXPECT_FALSE(r.String().ok());
}

TEST(CodecTest, BadValueTagRejected) {
  std::vector<uint8_t> wire{0xff};
  sql::ByteReader r(wire);
  EXPECT_FALSE(r.Value().ok());
}

// --- RevealRecord ---------------------------------------------------------------

RevealRecord MakeRecord() {
  RevealRecord rec;
  rec.disguise_id = 42;
  rec.disguise_name = "HotCRP-GDPR+";
  rec.user_id = Value::Int(19);
  rec.created = 12345;
  rec.ops.push_back(RevealOp::DropPlaceholder("ContactInfo", 99));
  rec.ops.push_back(RevealOp::RestoreColumn("PaperReview", 8, "contactId",
                                            Value::Int(19), Value::Int(295)));
  rec.ops.push_back(RevealOp::RestoreRow(
      "ContactInfo", 19,
      db::Row{Value::Int(19), Value::String("Bea"), Value::Null(), Value::Bool(false)}));
  return rec;
}

TEST(RevealRecordTest, SerializeRoundTrip) {
  RevealRecord rec = MakeRecord();
  auto back = RevealRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->disguise_id, rec.disguise_id);
  EXPECT_EQ(back->disguise_name, rec.disguise_name);
  EXPECT_EQ(back->user_id, rec.user_id);
  EXPECT_EQ(back->created, rec.created);
  ASSERT_EQ(back->ops.size(), 3u);
  EXPECT_EQ(back->ops[0].kind, RevealOp::Kind::kDropPlaceholder);
  EXPECT_EQ(back->ops[1].kind, RevealOp::Kind::kRestoreColumn);
  EXPECT_EQ(back->ops[1].column, "contactId");
  EXPECT_EQ(back->ops[1].old_value, Value::Int(19));
  EXPECT_EQ(back->ops[1].new_value, Value::Int(295));
  EXPECT_EQ(back->ops[2].kind, RevealOp::Kind::kRestoreRow);
  EXPECT_EQ(back->ops[2].row.size(), 4u);
}

TEST(RevealRecordTest, GlobalRecordHasNullOwner) {
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.disguise_name = "ConfAnon";
  rec.user_id = Value::Null();
  auto back = RevealRecord::Deserialize(rec.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->user_id.is_null());
}

TEST(RevealRecordTest, CorruptionRejected) {
  std::vector<uint8_t> wire = MakeRecord().Serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(RevealRecord::Deserialize(wire).ok());
  wire.clear();
  EXPECT_FALSE(RevealRecord::Deserialize(wire).ok());
}

// --- Backend conformance (parameterized over deployment models) ----------------

enum class Backend { kOffline, kTable, kEncrypted, kTwoTier };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kOffline:
      return "offline";
    case Backend::kTable:
      return "table";
    case Backend::kEncrypted:
      return "encrypted";
    case Backend::kTwoTier:
      return "two_tier";
  }
  return "?";
}

class VaultConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    // Per-user keys for the encrypted backends: every user shares a test key
    // derived from their id.
    key_provider_ = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
      std::vector<uint8_t> key(32, static_cast<uint8_t>(uid.is_int() ? uid.AsInt() : 7));
      return key;
    };
    switch (GetParam()) {
      case Backend::kOffline:
        vault_ = std::make_unique<OfflineVault>();
        break;
      case Backend::kTable: {
        auto v = TableVault::Create(&db_);
        ASSERT_TRUE(v.ok()) << v.status();
        vault_ = std::move(*v);
        break;
      }
      case Backend::kEncrypted:
        vault_ = std::make_unique<EncryptedVault>(std::vector<uint8_t>(32, 0xee),
                                                  key_provider_, Rng(1));
        break;
      case Backend::kTwoTier:
        vault_ = std::make_unique<TwoTierVault>(
            std::make_unique<OfflineVault>(),
            std::make_unique<EncryptedVault>(std::vector<uint8_t>(32, 0xee),
                                             key_provider_, Rng(2)));
        break;
    }
  }

  RevealRecord Record(uint64_t id, Value owner) {
    RevealRecord rec;
    rec.disguise_id = id;
    rec.disguise_name = "spec-" + std::to_string(id);
    rec.user_id = std::move(owner);
    rec.created = static_cast<TimePoint>(100 * id);
    rec.ops.push_back(RevealOp::DropPlaceholder("T", id));
    return rec;
  }

  db::Database db_;
  KeyProvider key_provider_;
  std::unique_ptr<Vault> vault_;
};

TEST_P(VaultConformanceTest, StoreAndFetchByUser) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(2, Value::Int(20))).ok());
  ASSERT_TRUE(vault_->Store(Record(3, Value::Int(19))).ok());

  auto recs = vault_->FetchForUser(Value::Int(19));
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[0].disguise_id, 1u);
  EXPECT_EQ((*recs)[1].disguise_id, 3u);  // oldest first
  EXPECT_EQ(vault_->NumRecords(), 3u);
}

TEST_P(VaultConformanceTest, FetchForDisguise) {
  ASSERT_TRUE(vault_->Store(Record(7, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(8, Value::Null())).ok());
  auto recs = vault_->FetchForDisguise(7);
  ASSERT_TRUE(recs.ok()) << recs.status();
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].disguise_name, "spec-7");
  auto global = vault_->FetchForDisguise(8);
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->size(), 1u);
  auto none = vault_->FetchForDisguise(99);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_P(VaultConformanceTest, GlobalRecordsSeparateFromUserRecords) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Null())).ok());
  ASSERT_TRUE(vault_->Store(Record(2, Value::Int(19))).ok());
  auto global = vault_->FetchGlobal();
  ASSERT_TRUE(global.ok()) << global.status();
  ASSERT_EQ(global->size(), 1u);
  EXPECT_EQ((*global)[0].disguise_id, 1u);
  auto user = vault_->FetchForUser(Value::Int(19));
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->size(), 1u);
}

TEST_P(VaultConformanceTest, RemoveDropsRecords) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Store(Record(2, Value::Int(19))).ok());
  ASSERT_TRUE(vault_->Remove(1).ok());
  EXPECT_EQ(vault_->NumRecords(), 1u);
  auto recs = vault_->FetchForUser(Value::Int(19));
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].disguise_id, 2u);
}

TEST_P(VaultConformanceTest, ExpireBeforeMakesDisguisesIrreversible) {
  ASSERT_TRUE(vault_->Store(Record(1, Value::Int(19))).ok());  // created = 100
  ASSERT_TRUE(vault_->Store(Record(5, Value::Int(19))).ok());  // created = 500
  auto expired = vault_->ExpireBefore(300);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(*expired, 1u);
  EXPECT_EQ(vault_->NumRecords(), 1u);
  auto gone = vault_->FetchForDisguise(1);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
}

TEST_P(VaultConformanceTest, PayloadSurvivesRoundTrip) {
  RevealRecord rec = Record(9, Value::Int(19));
  rec.ops.push_back(RevealOp::RestoreColumn("Review", 8, "contactId", Value::Int(19),
                                            Value::Int(295)));
  ASSERT_TRUE(vault_->Store(rec).ok());
  auto recs = vault_->FetchForDisguise(9);
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 1u);
  ASSERT_EQ((*recs)[0].ops.size(), 2u);
  EXPECT_EQ((*recs)[0].ops[1].old_value, Value::Int(19));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, VaultConformanceTest,
                         ::testing::Values(Backend::kOffline, Backend::kTable,
                                           Backend::kEncrypted, Backend::kTwoTier),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendName(info.param);
                         });

// --- Encrypted-vault specifics ----------------------------------------------------

TEST(EncryptedVaultTest, DeniedKeyProviderBlocksAccess) {
  int calls = 0;
  KeyProvider deny = [&calls](const Value&) -> StatusOr<std::vector<uint8_t>> {
    ++calls;
    return PermissionDenied("user declined");
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), deny, Rng(3));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Int(19);
  EXPECT_EQ(vault.Store(rec).code(), StatusCode::kPermissionDenied);
  EXPECT_GT(calls, 0);
}

TEST(EncryptedVaultTest, FingerprintMismatchDetected) {
  KeyProvider wrong_key = [](const Value&) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, 0xbb);
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), wrong_key, Rng(4));
  // Register the fingerprint of a DIFFERENT key.
  vault.RegisterUser(Value::Int(19), crypto::KeyFingerprint(std::vector<uint8_t>(32, 0xcc)));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Int(19);
  EXPECT_EQ(vault.Store(rec).code(), StatusCode::kPermissionDenied);
}

TEST(EncryptedVaultTest, GlobalRecordsNeedNoUserKey) {
  KeyProvider deny = [](const Value&) -> StatusOr<std::vector<uint8_t>> {
    return PermissionDenied("no");
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), deny, Rng(5));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Null();
  ASSERT_TRUE(vault.Store(rec).ok());
  auto global = vault.FetchGlobal();
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->size(), 1u);
}

TEST(EncryptedVaultTest, CryptoOpsCounted) {
  KeyProvider provider = [](const Value&) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, 0xaa);
  };
  EncryptedVault vault(std::vector<uint8_t>(32, 1), provider, Rng(6));
  RevealRecord rec;
  rec.disguise_id = 1;
  rec.user_id = Value::Int(19);
  ASSERT_TRUE(vault.Store(rec).ok());
  ASSERT_TRUE(vault.FetchForUser(Value::Int(19)).ok());
  EXPECT_GE(vault.stats().crypto_ops, 2u);  // one seal + one open
}

// Store and StoreBatch share one sealing path: fed the same records from the
// same nonce seed, a Store loop and one StoreBatch land on equal vaults.
TEST(EncryptedVaultTest, StoreLoopAndStoreBatchLandOnEqualVaults) {
  KeyProvider provider = [](const Value& uid) -> StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.AsInt()));
  };
  // Owners 19 and 20 plus global (NULL-owned) records, three disguises each.
  std::vector<RevealRecord> records;
  for (uint64_t d = 1; d <= 3; ++d) {
    for (const Value& owner : {Value::Int(19), Value::Int(20), Value::Null()}) {
      RevealRecord rec;
      rec.disguise_id = d;
      rec.disguise_name = "spec-" + std::to_string(d);
      rec.user_id = owner;
      rec.created = static_cast<TimePoint>(100 * d);
      rec.ops.push_back(RevealOp::RestoreColumn("Review", d, "contactId", owner,
                                                Value::Int(static_cast<int64_t>(100 + d))));
      records.push_back(std::move(rec));
    }
  }
  EncryptedVault looped(std::vector<uint8_t>(32, 1), provider, Rng(8));
  EncryptedVault batched(std::vector<uint8_t>(32, 1), provider, Rng(8));
  for (const RevealRecord& rec : records) {
    ASSERT_TRUE(looped.Store(rec).ok());
  }
  ASSERT_TRUE(batched.StoreBatch(records).ok());

  auto serialized = [](const StatusOr<std::vector<RevealRecord>>& fetched) {
    EXPECT_TRUE(fetched.ok()) << fetched.status();
    std::vector<std::vector<uint8_t>> out;
    if (fetched.ok()) {
      for (const RevealRecord& rec : *fetched) {
        out.push_back(rec.Serialize());
      }
    }
    return out;
  };
  for (int64_t uid : {19, 20}) {
    auto from_loop = serialized(looped.FetchForUser(Value::Int(uid)));
    EXPECT_EQ(from_loop.size(), 3u);
    EXPECT_EQ(from_loop, serialized(batched.FetchForUser(Value::Int(uid))));
  }
  for (uint64_t d = 1; d <= 3; ++d) {
    auto from_loop = serialized(looped.FetchForDisguise(d));
    EXPECT_EQ(from_loop.size(), 3u);
    EXPECT_EQ(from_loop, serialized(batched.FetchForDisguise(d)));
  }
  auto global = serialized(looped.FetchGlobal());
  EXPECT_EQ(global.size(), 3u);
  EXPECT_EQ(global, serialized(batched.FetchGlobal()));

  const VaultStats a = looped.stats();
  const VaultStats b = batched.stats();
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.records_fetched, b.records_fetched);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
  EXPECT_EQ(a.crypto_ops, b.crypto_ops);
  EXPECT_EQ(a.stores, records.size());
}

// --- Table-vault specifics ----------------------------------------------------------

TEST(TableVaultTest, LivesInsideApplicationDatabase) {
  db::Database db;
  auto vault = TableVault::Create(&db);
  ASSERT_TRUE(vault.ok());
  EXPECT_TRUE(db.HasTable(kVaultTableName));
  RevealRecord rec;
  rec.disguise_id = 3;
  rec.user_id = Value::Int(19);
  ASSERT_TRUE((*vault)->Store(rec).ok());
  EXPECT_EQ(db.FindTable(kVaultTableName)->num_rows(), 1u);
}

TEST(TableVaultTest, ParticipatesInTransactions) {
  db::Database db;
  auto vault = TableVault::Create(&db);
  ASSERT_TRUE(vault.ok());
  ASSERT_TRUE(db.Begin().ok());
  RevealRecord rec;
  rec.disguise_id = 3;
  rec.user_id = Value::Int(19);
  ASSERT_TRUE((*vault)->Store(rec).ok());
  ASSERT_TRUE(db.Rollback().ok());
  // The vault write was part of the aborted transaction — gone with it.
  EXPECT_EQ((*vault)->NumRecords(), 0u);
}

TEST(TableVaultTest, CreateTwiceReusesTable) {
  db::Database db;
  ASSERT_TRUE(TableVault::Create(&db).ok());
  EXPECT_TRUE(TableVault::Create(&db).ok());
}

// --- Two-tier specifics ---------------------------------------------------------------

TEST(TwoTierVaultTest, RoutesByOwner) {
  auto global = std::make_unique<OfflineVault>();
  auto user = std::make_unique<OfflineVault>();
  OfflineVault* global_ptr = global.get();
  OfflineVault* user_ptr = user.get();
  TwoTierVault vault(std::move(global), std::move(user));

  RevealRecord g;
  g.disguise_id = 1;
  g.user_id = Value::Null();
  RevealRecord u;
  u.disguise_id = 2;
  u.user_id = Value::Int(19);
  ASSERT_TRUE(vault.Store(g).ok());
  ASSERT_TRUE(vault.Store(u).ok());
  EXPECT_EQ(global_ptr->NumRecords(), 1u);
  EXPECT_EQ(user_ptr->NumRecords(), 1u);
  EXPECT_EQ(vault.NumRecords(), 2u);
  EXPECT_NE(vault.ModelName().find("two-tier"), std::string::npos);
}

}  // namespace
}  // namespace edna::vault
