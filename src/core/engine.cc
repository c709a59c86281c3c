#include "src/core/engine.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/core/engine_internal.h"
#include "src/vault/reveal_record.h"

namespace edna::core {

using disguise::DisguiseSpec;
using disguise::TableDisguise;
using disguise::TransformKind;
using disguise::Transformation;
using vault::RevealOp;
using vault::RevealRecord;

sql::ExprPtr MakeEqExpr(const std::string& column, const sql::Value& value) {
  return sql::Expr::Binary(sql::BinaryOp::kEq, sql::Expr::ColumnRef("", column),
                           sql::Expr::Literal(value));
}

Status FoldStatus(Status primary, const Status& secondary, const char* what) {
  if (secondary.ok()) {
    return primary;
  }
  return Status(primary.code(), primary.message() + " (additionally, " + what +
                                    " failed: " + secondary.ToString() + ")");
}

namespace {

// Engine-op depth per (engine, thread). A plain member would exempt every
// thread from the write guard while any one thread runs an engine operation.
thread_local std::unordered_map<const void*, int> tls_engine_op_depth;

// FNV-1a, fixing the operation identity into a 64-bit seed component.
uint64_t HashOpKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string OpKey(char kind, const std::string& spec_name, const sql::Value& uid) {
  return std::string(1, kind) + ":" + spec_name + ":" + uid.ToSqlString();
}

}  // namespace

// A row this operation selected but that is NotFound by the time we touch
// it was removed by a concurrently COMMITTED transaction (row intents
// already turn conflicts with LIVE transactions into kAborted); likewise a
// row-level IntegrityViolation means a committed neighbor changed the FK
// neighborhood after this operation's relevant stage ran (e.g. a reveal
// re-inserted a RESTRICT child of a row this apply is deleting). Surface
// both races as kAborted so a batch executor retries: the retry observes
// the committed state from the start and proceeds — the same outcome as a
// serial schedule where the other transaction ran first. A persistent
// integrity violation (a genuinely broken spec) exhausts the retry budget
// and is reported with the original message preserved below.
Status DisguiseEngine::RaceToAborted(const Status& s) {
  if (s.code() == StatusCode::kNotFound) {
    return Aborted("row removed by a concurrent transaction: " + s.message());
  }
  if (s.code() == StatusCode::kIntegrityViolation) {
    return Aborted("FK neighborhood changed by a concurrent transaction: " +
                   s.message());
  }
  return s;
}

void DisguiseEngine::EnterEngineOp() { ++tls_engine_op_depth[this]; }

void DisguiseEngine::ExitEngineOp() {
  auto it = tls_engine_op_depth.find(this);
  if (it != tls_engine_op_depth.end() && --it->second <= 0) {
    tls_engine_op_depth.erase(it);
  }
}

bool DisguiseEngine::InEngineOp() const {
  auto it = tls_engine_op_depth.find(this);
  return it != tls_engine_op_depth.end() && it->second > 0;
}

Rng DisguiseEngine::OpRng(char kind, const std::string& spec_name, const sql::Value& uid) {
  if (options_.deterministic_rng) {
    std::string key = OpKey(kind, spec_name, uid);
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(seq_mu_);
      seq = op_seq_[key];  // peek only: a retried (aborted) op reuses its seed
    }
    return Rng(options_.rng_seed ^ HashOpKey(key) ^ (seq * 0x9e3779b97f4a7c15ull));
  }
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.Fork(++rng_stream_);
}

void DisguiseEngine::CommitOpSeq(char kind, const std::string& spec_name,
                                 const sql::Value& uid) {
  if (!options_.deterministic_rng) {
    return;
  }
  std::lock_guard<std::mutex> lock(seq_mu_);
  ++op_seq_[OpKey(kind, spec_name, uid)];
}

StatusOr<db::RowId> DisguiseEngine::InsertPlaceholderRow(
    const std::string& table, std::map<std::string, sql::Value> values, Rng* rng) {
  const db::TableSchema* ts = db_->schema().FindTable(table);
  bool pk_drawable = false;
  if (options_.deterministic_rng && ts != nullptr && ts->primary_key().size() == 1) {
    const db::ColumnDef* pk = ts->FindColumn(ts->primary_key()[0]);
    pk_drawable = pk != nullptr && pk->type == db::ColumnType::kInt &&
                  pk->auto_increment && values.count(pk->name) == 0;
  }
  if (!pk_drawable) {
    return db_->InsertValues(table, values);
  }
  // Deterministic placeholder identity: draw the PK from the operation's own
  // stream, in a sparse band far above the dense application id range, so it
  // does not depend on how concurrent operations interleave on the shared
  // auto-increment counter. Collisions are vanishingly rare; redraw on one.
  const std::string& pk_col = ts->primary_key()[0];
  constexpr uint64_t kBand = 1ull << 40;
  for (int attempt = 0; attempt < 16; ++attempt) {
    values[pk_col] = sql::Value::Int(static_cast<int64_t>(kBand + rng->NextBounded(kBand)));
    StatusOr<db::RowId> id = db_->InsertValues(table, values);
    if (id.ok() || id.status().code() != StatusCode::kAlreadyExists) {
      return id;
    }
  }
  return Internal("could not draw a fresh placeholder key for \"" + table + "\"");
}

DisguiseEngine::DisguiseEngine(db::Database* db, vault::Vault* vault, const Clock* clock,
                               EngineOptions options)
    : db_(db), vault_(vault), clock_(clock), options_(options), rng_(options.rng_seed),
      log_(db) {}

Status DisguiseEngine::PersistJournalDelta(std::vector<uint8_t> delta) {
  if (journal_wal_ == nullptr || delta.empty()) {
    return OkStatus();
  }
  EDNA_FAIL_POINT(failpoints::kJournalPersist);
  return journal_wal_->AppendJournalDelta(std::move(delta));
}

void DisguiseEngine::StageCommittedAdvance(uint64_t journal_id) {
  if (journal_wal_ == nullptr) {
    return;
  }
  journal_wal_->StageJournalDelta(
      CommitJournal::EncodeAdvance(journal_id, JournalPhase::kCommitted));
}

void DisguiseEngine::StageCompletion(uint64_t journal_id) {
  if (journal_wal_ == nullptr) {
    return;
  }
  journal_wal_->StageJournalDelta(CommitJournal::EncodeComplete(journal_id));
}

Status DisguiseEngine::RetireJournalEntry(uint64_t journal_id) {
  Status persisted = PersistJournalDelta(CommitJournal::EncodeComplete(journal_id));
  if (!persisted.ok()) {
    // Entry stays pending in memory AND on disk: a reopen (or Recover())
    // sees the same picture either way, and finishes the retirement.
    return persisted;
  }
  journal_.Complete(journal_id);
  return OkStatus();
}

Status DisguiseEngine::RegisterSpec(DisguiseSpec spec) {
  RETURN_IF_ERROR(spec.Validate(db_->schema()));
  // Reserved tables are off-limits to application specs.
  for (const TableDisguise& td : spec.tables()) {
    if (StartsWith(td.table, "__edna")) {
      return InvalidArgument("spec \"" + spec.name() + "\" touches reserved table \"" +
                             td.table + "\"");
    }
  }
  std::string name = spec.name();
  if (specs_.count(name) > 0) {
    return AlreadyExists("spec \"" + name + "\" already registered");
  }
  specs_.emplace(std::move(name), std::move(spec));
  return OkStatus();
}

const DisguiseSpec* DisguiseEngine::FindSpec(const std::string& name) const {
  auto it = specs_.find(name);
  return it == specs_.end() ? nullptr : &it->second;
}

std::vector<std::string> DisguiseEngine::SpecNames() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) {
    out.push_back(name);
  }
  return out;
}

std::vector<const DisguiseSpec*> DisguiseEngine::Specs() const {
  std::vector<const DisguiseSpec*> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) {
    out.push_back(&spec);
  }
  return out;
}

StatusOr<sql::Value> DisguiseEngine::CreatePlaceholder(ApplyContext* ctx,
                                                       const std::string& table,
                                                       const sql::Value& owner) {
  const TableDisguise* td = ctx->spec->FindTable(table);
  if (td == nullptr || td->placeholder.empty()) {
    return Internal("no placeholder recipe for table \"" + table + "\" (spec validated?)");
  }
  std::map<std::string, sql::Value> values;
  disguise::GenContext gen_ctx;
  gen_ctx.rng = &ctx->rng;
  gen_ctx.params = &ctx->params;
  for (const disguise::PlaceholderColumn& pc : td->placeholder) {
    ASSIGN_OR_RETURN(sql::Value v, pc.generator.Generate(gen_ctx));
    values.emplace(pc.column, std::move(v));
  }
  ASSIGN_OR_RETURN(db::RowId id, InsertPlaceholderRow(table, std::move(values), &ctx->rng));
  ++ctx->result.placeholders_created;
  if (ctx->spec->reversible()) {
    RevealOp op = RevealOp::DropPlaceholder(table, id);
    op.owner = owner;
    ctx->record.ops.push_back(std::move(op));
  }
  // Single-column PK guaranteed for decorrelation targets by schema
  // validation of the FK.
  const db::TableSchema* ts = db_->schema().FindTable(table);
  return db_->GetColumn(table, id, ts->primary_key()[0]);
}

Status DisguiseEngine::RunDecorrelates(ApplyContext* ctx) {
  for (const TableDisguise& td : ctx->spec->tables()) {
    for (const Transformation& tr : td.transformations) {
      if (tr.kind() != TransformKind::kDecorrelate) {
        continue;
      }
      const std::string& fk_col = tr.foreign_key().column;
      // SelectRowsWithIds (not Select): the placeholder inserts below run
      // their own statements, whose boundary eviction may spill the selected
      // pages — RowRef pointers would read cleared payloads.
      ASSIGN_OR_RETURN(auto rows,
                       db_->SelectRowsWithIds(td.table, tr.predicate(), ctx->params));
      // Materialize (id, old value) pairs before mutating.
      std::vector<std::pair<db::RowId, sql::Value>> targets;
      const db::TableSchema* ts = db_->schema().FindTable(td.table);
      int fk_idx = ts->ColumnIndex(fk_col);
      targets.reserve(rows.size());
      for (const auto& [id, row] : rows) {
        const sql::Value& old = row[static_cast<size_t>(fk_idx)];
        if (old.is_null()) {
          continue;  // nothing to decorrelate
        }
        targets.emplace_back(id, old);
      }
      for (const auto& [id, old] : targets) {
        // One fresh placeholder per row: "making it seem as if a different
        // user entered each of Bea's reviews" (§4.1).
        ASSIGN_OR_RETURN(sql::Value placeholder_pk,
                         CreatePlaceholder(ctx, tr.foreign_key().parent_table, old));
        if (ctx->spec->reversible()) {
          RevealOp op = RevealOp::RestoreColumn(td.table, id, fk_col, old, placeholder_pk);
          op.owner = old;
          ctx->record.ops.push_back(std::move(op));
        }
        if (options_.batch_operations) {
          ctx->pending_batches[td.table].push_back({id, fk_col, placeholder_pk});
        } else {
          RETURN_IF_ERROR(RaceToAborted(db_->SetColumn(td.table, id, fk_col, placeholder_pk)));
        }
        ++ctx->result.rows_decorrelated;
      }
      RETURN_IF_ERROR(FlushBatches(ctx));
    }
  }
  return OkStatus();
}

Status DisguiseEngine::RunModifies(ApplyContext* ctx) {
  for (const TableDisguise& td : ctx->spec->tables()) {
    const db::TableSchema* ts = db_->schema().FindTable(td.table);
    for (const Transformation& tr : td.transformations) {
      if (tr.kind() != TransformKind::kModify) {
        continue;
      }
      ASSIGN_OR_RETURN(std::vector<db::RowRef> rows,
                       db_->Select(td.table, tr.predicate(), ctx->params));
      std::vector<db::RowId> ids;
      ids.reserve(rows.size());
      for (const db::RowRef& ref : rows) {
        ids.push_back(ref.id);
      }
      int col_idx = ts->ColumnIndex(tr.column());
      for (db::RowId id : ids) {
        auto row_or = db_->GetRow(td.table, id);
        if (!row_or.ok()) {
          return RaceToAborted(row_or.status());
        }
        db::Row row = *std::move(row_or);
        sql::Value old = row[static_cast<size_t>(col_idx)];
        disguise::GenContext gen_ctx;
        gen_ctx.rng = &ctx->rng;
        gen_ctx.original = &old;
        gen_ctx.row = db::MakeRowResolver(*ts, row);
        gen_ctx.params = &ctx->params;
        ASSIGN_OR_RETURN(sql::Value next, tr.generator().Generate(gen_ctx));
        if (next == old) {
          continue;  // no-op modify: no reveal record, no write
        }
        if (ctx->spec->reversible()) {
          ctx->record.ops.push_back(
              RevealOp::RestoreColumn(td.table, id, tr.column(), old, next));
        }
        if (options_.batch_operations) {
          ctx->pending_batches[td.table].push_back({id, tr.column(), next});
        } else {
          RETURN_IF_ERROR(RaceToAborted(db_->SetColumn(td.table, id, tr.column(), next)));
        }
        ++ctx->result.rows_modified;
      }
      RETURN_IF_ERROR(FlushBatches(ctx));
    }
  }
  return OkStatus();
}

StatusOr<std::vector<std::string>> DisguiseEngine::RemoveOrder(
    const DisguiseSpec& spec) const {
  // Tables with Remove transformations, ordered child-before-parent so that
  // FK RESTRICT constraints never block a spec that removes both sides.
  std::vector<std::string> tables;
  for (const TableDisguise& td : spec.tables()) {
    for (const Transformation& tr : td.transformations) {
      if (tr.kind() == TransformKind::kRemove) {
        tables.push_back(td.table);
        break;
      }
    }
  }
  // Edge X -> Y when X has an FK referencing Y (X must be processed first).
  std::map<std::string, std::set<std::string>> refs;
  for (const std::string& t : tables) {
    const db::TableSchema* ts = db_->schema().FindTable(t);
    for (const db::ForeignKeyDef& fk : ts->foreign_keys()) {
      if (std::find(tables.begin(), tables.end(), fk.parent_table) != tables.end() &&
          fk.parent_table != t) {
        refs[t].insert(fk.parent_table);
      }
    }
  }
  // Kahn's algorithm: emit tables whose referenced parents are all emitted
  // LAST; i.e. emit children first. We emit a table when no *unemitted*
  // table references it... simpler: repeatedly emit a table none of whose
  // FK parents have been emitted yet? Invert: emit X only after every table
  // that references X. Compute in-degree = number of unemitted referencers.
  std::vector<std::string> order;
  std::set<std::string> emitted;
  while (order.size() < tables.size()) {
    bool progress = false;
    for (const std::string& t : tables) {
      if (emitted.count(t) > 0) {
        continue;
      }
      bool blocked = false;
      for (const std::string& other : tables) {
        if (other == t || emitted.count(other) > 0) {
          continue;
        }
        if (refs[other].count(t) > 0) {
          blocked = true;  // `other` references t and is not yet removed
          break;
        }
      }
      if (!blocked) {
        order.push_back(t);
        emitted.insert(t);
        progress = true;
      }
    }
    if (!progress) {
      // FK cycle among removed tables; fall back to spec order.
      EDNA_LOG(kWarning) << "FK cycle among Remove targets of \"" << spec.name()
                         << "\"; using spec order";
      return tables;
    }
  }
  return order;
}

Status DisguiseEngine::RemoveWithClosure(ApplyContext* ctx, const std::string& table,
                                         db::RowId id, int depth) {
  if (depth > 32) {
    return IntegrityViolation("remove closure too deep (FK cycle?)");
  }
  auto row_or = db_->GetRow(table, id);
  if (!row_or.ok()) {
    return RaceToAborted(row_or.status());
  }
  db::Row row = *std::move(row_or);
  const db::TableSchema* ts = db_->schema().FindTable(table);

  // Children referencing this row, by declared FK delete action.
  if (ts->primary_key().size() == 1) {
    const std::string& pk_col = ts->primary_key()[0];
    sql::Value pk_value = row[static_cast<size_t>(ts->ColumnIndex(pk_col))];
    for (const db::TableSchema& child : db_->schema().tables()) {
      for (const db::ForeignKeyDef& fk : child.foreign_keys()) {
        if (fk.parent_table != table) {
          continue;
        }
        sql::ExprPtr pred = MakeEqExpr(fk.column, pk_value);
        ASSIGN_OR_RETURN(std::vector<db::RowRef> kids,
                         db_->Select(child.name(), pred.get(), ctx->params));
        if (kids.empty()) {
          continue;
        }
        switch (fk.on_delete) {
          case db::FkAction::kRestrict:
            // The spec must have decorrelated or removed these first. A
            // violation is either a spec bug (persistent: survives the
            // batch retry budget and is reported) or a concurrent reveal
            // re-inserting a child after this apply's stage for the child
            // table ran (transient: RaceToAborted makes the retry see it).
            return RaceToAborted(IntegrityViolation(
                "removing \"" + table + "\" row " + pk_value.ToSqlString() +
                " would orphan " + std::to_string(kids.size()) + " row(s) of \"" +
                child.name() + "\" (RESTRICT)"));
          case db::FkAction::kCascade: {
            std::vector<db::RowId> kid_ids;
            kid_ids.reserve(kids.size());
            for (const db::RowRef& k : kids) {
              kid_ids.push_back(k.id);
            }
            for (db::RowId kid : kid_ids) {
              if (db_->RowExists(child.name(), kid)) {
                RETURN_IF_ERROR(RemoveWithClosure(ctx, child.name(), kid, depth + 1));
              }
            }
            break;
          }
          case db::FkAction::kSetNull: {
            std::vector<db::RowId> kid_ids;
            for (const db::RowRef& k : kids) {
              kid_ids.push_back(k.id);
            }
            for (db::RowId kid : kid_ids) {
              if (ctx->spec->reversible()) {
                ctx->record.ops.push_back(RevealOp::RestoreColumn(
                    child.name(), kid, fk.column, pk_value, sql::Value::Null()));
              }
              RETURN_IF_ERROR(RaceToAborted(
                  db_->SetColumn(child.name(), kid, fk.column, sql::Value::Null())));
            }
            break;
          }
        }
      }
    }
  }

  // Children handled: record the row (AFTER child ops, so reverse-order
  // reveal restores this parent before its children) and delete it.
  if (ctx->spec->reversible()) {
    ctx->record.ops.push_back(RevealOp::RestoreRow(table, id, row));
  }
  RETURN_IF_ERROR(RaceToAborted(db_->DeleteRow(table, id)));
  ++ctx->result.rows_removed;
  return OkStatus();
}

Status DisguiseEngine::RunRemoves(ApplyContext* ctx) {
  ASSIGN_OR_RETURN(std::vector<std::string> order, RemoveOrder(*ctx->spec));
  for (const std::string& table : order) {
    const TableDisguise* td = ctx->spec->FindTable(table);
    for (const Transformation& tr : td->transformations) {
      if (tr.kind() != TransformKind::kRemove) {
        continue;
      }
      ASSIGN_OR_RETURN(std::vector<db::RowRef> rows,
                       db_->Select(table, tr.predicate(), ctx->params));
      std::vector<db::RowId> ids;
      ids.reserve(rows.size());
      for (const db::RowRef& ref : rows) {
        ids.push_back(ref.id);
      }
      for (db::RowId id : ids) {
        if (!db_->RowExists(table, id)) {
          continue;  // removed by an earlier closure walk
        }
        RETURN_IF_ERROR(RemoveWithClosure(ctx, table, id, 0));
      }
    }
  }
  return OkStatus();
}

Status DisguiseEngine::CheckAssertions(const DisguiseSpec& spec,
                                       const sql::ParamMap& params) {
  for (const disguise::Assertion& a : spec.assertions()) {
    ASSIGN_OR_RETURN(size_t n, db_->Count(a.table, a.predicate.get(), params));
    if (n != 0) {
      return IntegrityViolation(StrFormat(
          "disguise \"%s\" failed end-state assertion on \"%s\": %zu row(s) still match %s",
          spec.name().c_str(), a.table.c_str(), n, a.predicate->ToString().c_str()));
    }
  }
  return OkStatus();
}

void DisguiseEngine::EnsureGuardInstalled() {
  // guard_mu_ -> db catalog (SetWriteGuard). The guard lambda itself runs
  // under a db stripe lock and takes prot_mu_, which is why ProtectRows must
  // install the guard BEFORE taking prot_mu_: holding prot_mu_ across
  // SetWriteGuard would invert stripe->prot_mu_ with prot_mu_->catalog.
  std::lock_guard<std::mutex> lock(guard_mu_);
  if (guard_installed_) {
    return;
  }
  guard_installed_ = true;
  db_->SetWriteGuard([this](const std::string& table, db::RowId id,
                            const std::string& column) -> Status {
    if (InEngineOp()) {
      return OkStatus();
    }
    {
      std::lock_guard<std::mutex> prot_lock(prot_mu_);
      if (protected_rows_.count({table, id}) == 0) {
        return OkStatus();
      }
    }
    return FailedPrecondition(
        "row " + std::to_string(id) + " of \"" + table +
        "\" is under an active disguise" +
        (column.empty() ? std::string() : " (column \"" + column + "\")") +
        "; reveal the disguise before modifying it");
  });
}

void DisguiseEngine::ProtectRows(uint64_t disguise_id, const vault::RevealRecord& record) {
  EnsureGuardInstalled();
  std::lock_guard<std::mutex> lock(prot_mu_);
  std::vector<std::pair<std::string, db::RowId>>& owned =
      protected_by_disguise_[disguise_id];
  for (const RevealOp& op : record.ops) {
    if (op.kind == RevealOp::Kind::kRestoreRow) {
      continue;  // the row is gone; nothing to protect
    }
    std::pair<std::string, db::RowId> key{op.table, op.row_id};
    ++protected_rows_[key];
    owned.push_back(std::move(key));
  }
}

void DisguiseEngine::UnprotectRows(uint64_t disguise_id) {
  std::lock_guard<std::mutex> lock(prot_mu_);
  auto it = protected_by_disguise_.find(disguise_id);
  if (it == protected_by_disguise_.end()) {
    return;
  }
  for (const auto& key : it->second) {
    auto entry = protected_rows_.find(key);
    if (entry != protected_rows_.end() && --entry->second <= 0) {
      protected_rows_.erase(entry);
    }
  }
  protected_by_disguise_.erase(it);
}

Status DisguiseEngine::FlushBatches(ApplyContext* ctx) {
  for (auto& [table, updates] : ctx->pending_batches) {
    if (!updates.empty()) {
      RETURN_IF_ERROR(RaceToAborted(db_->BatchSetColumns(table, updates).status()));
      updates.clear();
    }
  }
  return OkStatus();
}

}  // namespace edna::core
