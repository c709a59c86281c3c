#include "src/db/database.h"

#include <algorithm>
#include <set>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/sql/verify.h"

namespace edna::db {

namespace {

// Per-thread statement counter (see Database::ThreadStatements). One global
// counter is enough: a thread computes deltas around one operation on one
// database at a time, so cross-instance bleed cannot occur within a delta.
thread_local uint64_t tls_statements = 0;

}  // namespace

sql::ColumnResolver MakeRowResolver(const TableSchema& schema, const Row& row) {
  return [&schema, &row](const std::string& table,
                         const std::string& column) -> StatusOr<sql::Value> {
    if (!table.empty() && table != schema.name()) {
      return NotFound("unknown table qualifier \"" + table + "\" (row is from \"" +
                      schema.name() + "\")");
    }
    int idx = schema.ColumnIndex(column);
    if (idx < 0) {
      return NotFound("unknown column \"" + column + "\" in table \"" + schema.name() + "\"");
    }
    return row[static_cast<size_t>(idx)];
  };
}

// --- Locking -----------------------------------------------------------------

size_t Database::StripeOf(const std::string& table) {
  return std::hash<std::string>{}(table) % kNumStripes;
}

Database::TableLock::TableLock(const Database* db) : db_(db) {
  db_->catalog_mu_.lock_shared();
}

void Database::TableLock::Lock(const std::vector<std::string>& exclusive,
                               const std::vector<std::string>& shared) {
  // Collapse table names onto stripes; if a stripe is wanted in both modes,
  // exclusive wins. Acquisition in ascending stripe order makes every
  // multi-stripe statement take locks in the same global order (deadlock
  // freedom); each stripe is acquired at most once (shared_mutex is not
  // recursive).
  std::map<size_t, bool> want;
  for (const std::string& t : exclusive) {
    want[StripeOf(t)] = true;
  }
  for (const std::string& t : shared) {
    want.emplace(StripeOf(t), false);
  }
  held_.reserve(want.size());
  for (const auto& [stripe, excl] : want) {
    if (excl) {
      db_->stripes_[stripe].lock();
    } else {
      db_->stripes_[stripe].lock_shared();
    }
    held_.emplace_back(stripe, excl);
  }
}

void Database::TableLock::LockAllShared() {
  held_.reserve(kNumStripes);
  for (size_t i = 0; i < kNumStripes; ++i) {
    db_->stripes_[i].lock_shared();
    held_.emplace_back(i, false);
  }
}

Database::TableLock::~TableLock() {
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (it->second) {
      db_->stripes_[it->first].unlock();
    } else {
      db_->stripes_[it->first].unlock_shared();
    }
  }
  db_->catalog_mu_.unlock_shared();
}

Database::TxnState& Database::Txn() const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  return txns_[std::this_thread::get_id()];  // node-stable; owner-thread access after
}

void Database::CountStatement() const {
  ++stats_.queries;
  ++tls_statements;
}

uint64_t Database::ThreadStatements() { return tls_statements; }

// --- Write intents (first-writer-wins) ---------------------------------------

Status Database::ClaimIntent(TxnState& tx, const std::string& table, RowId id) {
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(intents_mu_);
    auto key = std::make_pair(table, id);
    auto [it, inserted] = write_intents_.try_emplace(key, std::this_thread::get_id());
    if (!inserted && it->second != std::this_thread::get_id()) {
      return Aborted(StrFormat("write conflict: row %llu of \"%s\" is being written by a "
                               "concurrent transaction",
                               static_cast<unsigned long long>(id), table.c_str()));
    }
    if (inserted) {
      tx.intents.push_back(std::move(key));
      fresh = true;
    }
  }
  // Pin outside intents_mu_: the cache mutex and intents_mu_ are sibling
  // leaves and must never nest. A pinned page is unevictable, which keeps
  // every row in the undo log resident until the intent is released.
  if (fresh && cache_ != nullptr) {
    cache_->PinRow(table, id);
  }
  return OkStatus();
}

void Database::ReleaseIntents(TxnState& tx, size_t from) {
  if (tx.intents.size() <= from) {
    return;
  }
  std::vector<std::pair<std::string, RowId>> released;
  {
    std::lock_guard<std::mutex> lock(intents_mu_);
    while (tx.intents.size() > from) {
      write_intents_.erase(tx.intents.back());
      released.push_back(std::move(tx.intents.back()));
      tx.intents.pop_back();
    }
  }
  if (cache_ != nullptr) {
    for (const auto& [table, id] : released) {
      cache_->UnpinRow(table, id);
    }
  }
}

// RAII: wraps a single statement in an implicit transaction when no explicit
// one is active, so a mid-statement failure (e.g. cascade hitting RESTRICT)
// leaves the database unchanged. Statement-scoped intents are released on
// implicit commit/abort; inside an explicit transaction they are kept until
// the transaction ends (conservative: a reverted row stays claimed).
class Database::StatementScope {
 public:
  StatementScope(Database* db, TxnState& tx) : db_(db), tx_(tx), implicit_(!tx.in_txn) {
    if (implicit_) {
      tx_.in_txn = true;
    }
    mark_ = tx_.undo_log.size();
  }
  ~StatementScope() {
    if (!done_) {
      // Statement failed: roll back just this statement's effects. Inside an
      // explicit transaction the enclosing transaction stays open.
      db_->ApplyUndo(tx_, mark_);
      if (implicit_) {
        tx_.in_txn = false;
        db_->ReleaseIntents(tx_, 0);
      }
    }
  }
  // Commits the statement. When this scope IS the implicit transaction and a
  // durability sink is attached, the statement's net changes are appended to
  // the WAL before write intents are released; `*wal_lsn` receives the LSN
  // the caller must sync AFTER dropping its table locks (the fsync may be
  // slow). A simulated crash out of the append freezes the statement —
  // done_ set, no undo, intents kept — so the in-memory state matches what a
  // real process death mid-commit would leave for recovery to roll back.
  // Any other append failure rolls the statement back via the destructor.
  Status Commit(uint64_t* wal_lsn) {
    if (implicit_ && tx_.undo_log.size() > mark_) {
      StatusOr<uint64_t> lsn = db_->AppendCommitToWal(tx_, mark_);
      if (!lsn.ok()) {
        if (FailPoints::IsSimulatedCrash(lsn.status())) {
          done_ = true;
        }
        return lsn.status();
      }
      if (wal_lsn != nullptr) {
        *wal_lsn = *lsn;
      }
    }
    done_ = true;
    if (implicit_) {
      tx_.undo_log.clear();
      tx_.in_txn = false;
      db_->ReleaseIntents(tx_, 0);
    }
    return OkStatus();
  }

 private:
  Database* db_;
  TxnState& tx_;
  bool implicit_;
  bool done_ = false;
  size_t mark_ = 0;
};

// --- Durability --------------------------------------------------------------

void Database::SetWalSink(WalSink* sink) {
  std::unique_lock<std::shared_mutex> catalog(catalog_mu_);
  wal_sink_ = sink;
}

bool Database::HasWalSink() const {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  return wal_sink_ != nullptr;
}

StatusOr<uint64_t> Database::AppendCommitToWal(TxnState& tx, size_t from_mark) {
  if (wal_sink_ == nullptr || tx.undo_log.size() <= from_mark) {
    return static_cast<uint64_t>(0);
  }
  WalCommit commit;
  // The undo log holds one entry per primitive mutation; the NET change of a
  // row is (prior existence, current state). The FIRST undo entry touching a
  // row tells whether it existed before the transaction (kInsert: no;
  // kDelete/kUpdate: yes), and the table holds its final image now.
  std::set<std::pair<std::string, RowId>> seen;
  std::set<std::string> touched_tables;
  for (size_t i = from_mark; i < tx.undo_log.size(); ++i) {
    const UndoEntry& e = tx.undo_log[i];
    touched_tables.insert(e.table);
    if (!seen.insert({e.table, e.id}).second) {
      continue;
    }
    Table* t = MutableTable(e.table);
    if (t == nullptr) {
      return Internal("commit references missing table \"" + e.table + "\"");
    }
    const Row* now = t->Find(e.id);
    WalChange change;
    change.table = e.table;
    change.id = e.id;
    if (now == nullptr) {
      // Undo-logged rows are intent-pinned, so Find cannot have fault-failed
      // here; the sticky check is defensive against that invariant breaking.
      RETURN_IF_ERROR(StickyCacheError());
      if (e.kind == UndoEntry::Kind::kInsert) {
        continue;  // created and deleted within the transaction: net no-op
      }
      change.erase = true;
    } else {
      change.row = *now;
    }
    commit.changes.push_back(std::move(change));
  }
  // Auto-increment counters ride along so a replayed database hands out the
  // same ids. Replay raises to the max seen, so a stale value from an
  // interleaved explicit commit is harmless.
  for (const std::string& name : touched_tables) {
    if (Table* t = MutableTable(name); t != nullptr) {
      commit.counters.emplace_back(name, t->PeekAutoIncrement() - 1);
    }
  }
  return wal_sink_->AppendCommit(std::move(commit));
}

Status Database::WaitWalDurable(uint64_t lsn) {
  if (lsn == 0) {
    return OkStatus();
  }
  WalSink* sink = nullptr;
  {
    // Read the pointer under the catalog lock, but sync OUTSIDE it: an
    // fsync must not block DDL.
    std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
    sink = wal_sink_;
  }
  if (sink == nullptr) {
    return OkStatus();
  }
  return sink->SyncCommit(lsn);
}

// --- Page cache --------------------------------------------------------------

Status Database::StickyCacheError() const {
  return cache_ == nullptr ? OkStatus() : cache_->ConsumeStickyError();
}

Status Database::CacheFaultOr(Status fallback) const {
  // A Find that returned nullptr is ambiguous with a pager attached: the row
  // may be gone (fallback, usually kNotFound) or its page may have failed to
  // fault in. Surface the fault — mapping an extent I/O error to kNotFound
  // would silently report a live row as missing.
  if (cache_ != nullptr) {
    Status sticky = cache_->ConsumeStickyError();
    if (!sticky.ok()) {
      return sticky;
    }
  }
  return fallback;
}

Status Database::AttachPageCache(const CacheOptions& options,
                                 const std::string& extents_dir) {
  std::unique_lock<std::shared_mutex> catalog(catalog_mu_);
  if (cache_ != nullptr) {
    return FailedPrecondition("page cache already attached");
  }
  if (options.max_resident_bytes == 0) {
    return InvalidArgument("page cache needs a nonzero max_resident_bytes");
  }
  auto cache = std::make_unique<PageCache>(options, extents_dir, &stats_);
  RETURN_IF_ERROR(cache->Init());
  for (auto& [name, table] : tables_) {
    const uint32_t table_id = cache->RegisterTable(name, &table);
    table.SetPager(cache.get(), table_id, cache->rows_per_page());
  }
  cache_ = std::move(cache);
  return OkStatus();
}

Status Database::MaybeEvictPages() const {
  PageCache* cache = cache_.get();
  if (cache == nullptr || !cache->OverBudget()) {
    return OkStatus();
  }
  // Called at statement boundaries with NO locks held. Lock order here is
  // the canonical one (catalog shared, then one stripe), but only try_lock
  // on the stripe: a statement blocked on eviction would invert the
  // "eviction never delays readers" goal, and the budget is soft anyway —
  // the next statement boundary retries.
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  for (int round = 0; round < 4 && cache->OverBudget(); ++round) {
    std::vector<PageCache::EvictGroup> plan = cache->PlanEviction();
    if (plan.empty()) {
      break;  // everything evictable is pinned or already spilled
    }
    bool progressed = false;
    for (PageCache::EvictGroup& g : plan) {
      const size_t stripe = StripeOf(g.table);
      if (!stripes_[stripe].try_lock()) {
        cache->Requeue(g.table_id, g.pages);
        continue;
      }
      StatusOr<bool> evicted = cache->EvictPages(g.table_id, g.pages);
      stripes_[stripe].unlock();
      if (!evicted.ok()) {
        if (FailPoints::IsSimulatedCrash(evicted.status())) {
          return evicted.status();  // joins the crash battery
        }
        // The statement already committed; a failed spill costs memory
        // headroom, never correctness. Log and let the budget ride.
        EDNA_LOG(kWarning) << "page eviction failed: " << evicted.status();
        return OkStatus();
      }
      progressed = progressed || *evicted;
    }
    if (!progressed) {
      break;
    }
  }
  return OkStatus();
}

Status Database::ApplyWalChange(const WalChange& change) {
  TableLock lock(this);
  lock.Lock({change.table}, {});
  Table* t = MutableTable(change.table);
  if (t == nullptr) {
    return NotFound("WAL change references missing table \"" + change.table + "\"");
  }
  if (t->Contains(change.id)) {
    RETURN_IF_ERROR(t->Erase(change.id).status());
  }
  if (!change.erase) {
    RETURN_IF_ERROR(t->InsertWithId(change.id, Row(change.row)));
  }
  return OkStatus();
}

// --- DDL ---------------------------------------------------------------------

Status Database::CreateTable(TableSchema schema) {
  RETURN_IF_ERROR(schema.Validate());
  uint64_t wal_lsn = 0;
  {
    std::unique_lock<std::shared_mutex> catalog(catalog_mu_);
    if (tables_.count(schema.name()) > 0) {
      return AlreadyExists("table \"" + schema.name() + "\" already exists");
    }
    // Write-ahead: log the DDL before the catalog mutation, so a crash
    // between the two replays the table into existence rather than losing it.
    if (wal_sink_ != nullptr) {
      WalRecord rec;
      rec.kind = WalRecord::Kind::kCreateTable;
      rec.schema = schema;
      ASSIGN_OR_RETURN(wal_lsn, wal_sink_->AppendDdl(rec));
    }
    RETURN_IF_ERROR(schema_.AddTable(schema));
    std::string name = schema.name();  // read before the move below
    auto [it, inserted] =
        tables_.emplace(std::move(name), Table(std::move(schema)));
    if (cache_ != nullptr) {
      const uint32_t table_id = cache_->RegisterTable(it->first, &it->second);
      it->second.SetPager(cache_.get(), table_id, cache_->rows_per_page());
    }
    InvalidatePlans();
  }
  return WaitWalDurable(wal_lsn);
}

Status Database::AdoptSchema(const Schema& schema) {
  RETURN_IF_ERROR(schema.Validate());
  for (const TableSchema& t : schema.tables()) {
    RETURN_IF_ERROR(CreateTable(t));
  }
  return OkStatus();
}

const Table* Database::FindTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Database::MutableTable(const std::string& name) {
  // Callers hold the catalog (shared) and the table's stripe already.
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<Database::ChildRef> Database::ChildrenOf(const std::string& parent_table) const {
  std::vector<ChildRef> out;
  for (const TableSchema& t : schema_.tables()) {
    for (const ForeignKeyDef& fk : t.foreign_keys()) {
      if (fk.parent_table == parent_table) {
        out.push_back(ChildRef{t.name(), fk});
      }
    }
  }
  return out;
}

std::vector<std::string> Database::DeleteClosure(const std::string& table) const {
  std::vector<std::string> closure{table};
  std::set<std::string> seen{table};
  for (size_t i = 0; i < closure.size(); ++i) {
    for (const ChildRef& child : ChildrenOf(closure[i])) {
      if (seen.insert(child.child_table).second) {
        closure.push_back(child.child_table);
      }
    }
  }
  return closure;
}

std::vector<std::string> Database::ParentTables(const std::string& table) const {
  std::vector<std::string> out;
  if (const TableSchema* ts = schema_.FindTable(table); ts != nullptr) {
    for (const ForeignKeyDef& fk : ts->foreign_keys()) {
      out.push_back(fk.parent_table);
    }
  }
  return out;
}

std::vector<std::string> Database::ChildTables(const std::string& table) const {
  std::vector<std::string> out;
  for (const ChildRef& child : ChildrenOf(table)) {
    out.push_back(child.child_table);
  }
  return out;
}

Status Database::CheckFkTarget(const ForeignKeyDef& fk, const sql::Value& v) const {
  if (v.is_null()) {
    return OkStatus();
  }
  auto it = tables_.find(fk.parent_table);
  const Table* parent = it == tables_.end() ? nullptr : &it->second;
  if (parent == nullptr) {
    return Internal("FK parent table \"" + fk.parent_table + "\" missing");
  }
  PkKey key;
  key.values.push_back(v);
  ++stats_.index_lookups;
  if (!parent->LookupPk(key).ok()) {
    return IntegrityViolation("foreign key violation: no \"" + fk.parent_table + "\" row with " +
                              fk.parent_column + " = " + v.ToSqlString());
  }
  return OkStatus();
}

Status Database::CheckRowFks(const TableSchema& schema, const Row& row) const {
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    const sql::Value& v = row[static_cast<size_t>(schema.ColumnIndex(fk.column))];
    RETURN_IF_ERROR(CheckFkTarget(fk, v));
  }
  return OkStatus();
}

void Database::LogInsert(TxnState& tx, const std::string& table, RowId id) {
  UndoEntry e;
  e.kind = UndoEntry::Kind::kInsert;
  e.table = table;
  e.id = id;
  tx.undo_log.push_back(std::move(e));
}

void Database::LogDelete(TxnState& tx, const std::string& table, RowId id, Row row) {
  UndoEntry e;
  e.kind = UndoEntry::Kind::kDelete;
  e.table = table;
  e.id = id;
  e.row = std::move(row);
  tx.undo_log.push_back(std::move(e));
}

void Database::LogUpdate(TxnState& tx, const std::string& table, RowId id, size_t col_idx,
                         sql::Value old_value) {
  UndoEntry e;
  e.kind = UndoEntry::Kind::kUpdate;
  e.table = table;
  e.id = id;
  e.col_idx = col_idx;
  e.old_value = std::move(old_value);
  tx.undo_log.push_back(std::move(e));
}

void Database::ApplyUndo(TxnState& tx, size_t from_mark) {
  while (tx.undo_log.size() > from_mark) {
    UndoEntry e = std::move(tx.undo_log.back());
    tx.undo_log.pop_back();
    Table* t = MutableTable(e.table);
    if (t == nullptr) {
      EDNA_LOG(kError) << "undo references missing table " << e.table;
      continue;
    }
    switch (e.kind) {
      case UndoEntry::Kind::kInsert: {
        auto removed = t->Erase(e.id);
        if (!removed.ok()) {
          EDNA_LOG(kError) << "undo insert failed: " << removed.status();
        }
        break;
      }
      case UndoEntry::Kind::kDelete: {
        Status st = t->InsertWithId(e.id, std::move(e.row));
        if (!st.ok()) {
          EDNA_LOG(kError) << "undo delete failed: " << st;
        }
        break;
      }
      case UndoEntry::Kind::kUpdate: {
        auto st = t->UpdateColumn(e.id, e.col_idx, std::move(e.old_value));
        if (!st.ok()) {
          EDNA_LOG(kError) << "undo update failed: " << st.status();
        }
        break;
      }
    }
  }
}

// --- DML ---------------------------------------------------------------------

StatusOr<RowId> Database::Insert(const std::string& table, Row row) {
  uint64_t wal_lsn = 0;
  RowId id = kInvalidRowId;
  {
    TableLock lock(this);
    lock.Lock({table}, ParentTables(table));
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();
    RETURN_IF_ERROR(CheckRowFks(t->schema(), row));
    ASSIGN_OR_RETURN(id, t->Insert(std::move(row)));
    ++stats_.rows_inserted;
    LogInsert(tx, table, id);
    // Claim the fresh row so a concurrent transaction cannot delete or update
    // it before this one commits (it can only see it through reads).
    RETURN_IF_ERROR(ClaimIntent(tx, table, id));
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  RETURN_IF_ERROR(MaybeEvictPages());
  return id;
}

StatusOr<RowId> Database::InsertValues(const std::string& table,
                                       const std::map<std::string, sql::Value>& values) {
  Row row;
  {
    std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return NotFound("no table \"" + table + "\"");
    }
    const TableSchema& schema = it->second.schema();
    row.assign(schema.num_columns(), sql::Value::Null());
    for (const auto& [name, value] : values) {
      int idx = schema.ColumnIndex(name);
      if (idx < 0) {
        return NotFound("unknown column \"" + name + "\" in table \"" + table + "\"");
      }
      row[static_cast<size_t>(idx)] = value;
    }
    // Fill defaults for unspecified columns.
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const ColumnDef& col = schema.columns()[i];
      if (values.count(col.name) == 0 && col.default_value.has_value()) {
        row[i] = *col.default_value;
      }
    }
  }
  return Insert(table, std::move(row));
}

StatusOr<std::vector<RowId>> Database::MatchRows(const Table& table, const sql::Expr* pred,
                                                 const sql::ParamMap& params) const {
  // No WHERE clause: a deliberate whole-table read, not a planner miss —
  // full_scans stays untouched (it counts predicates that FELL BACK to
  // scanning).
  if (pred == nullptr) {
    std::vector<RowId> candidates = table.AllRowIds();
    stats_.rows_read += candidates.size();
    return candidates;
  }

  // Fast path: `col = <literal or $param>` on an indexed column. The
  // engine's hot path is dominated by this shape — literal one-shots (one
  // statement per placeholder row) and spec predicates like
  // `"contactId" = $UID` — so going through the cache would pay a ToString
  // key (plus, for one-shots, an insert) per statement. The shape is exact
  // (see plan.h): the probe decides, no residual.
  if (pred->kind() == sql::ExprKind::kBinary &&
      pred->binary_op() == sql::BinaryOp::kEq) {
    const sql::Expr* col = pred->children()[0].get();
    const sql::Expr* val = pred->children()[1].get();
    if (col->kind() != sql::ExprKind::kColumnRef) {
      std::swap(col, val);
    }
    const sql::Value* value = nullptr;
    if (val->kind() == sql::ExprKind::kLiteral) {
      value = &val->literal();
    } else if (val->kind() == sql::ExprKind::kParam) {
      auto it = params.find(val->param_name());
      if (it != params.end()) {
        value = &it->second;
      }
      // Unbound param: fall through; the cached path surfaces the same
      // error the interpreter would.
    }
    if (value != nullptr && col->kind() == sql::ExprKind::kColumnRef &&
        (col->table().empty() || col->table() == table.schema().name()) &&
        table.HasIndexOn(col->column())) {
      std::vector<RowId> out;
      if (value->is_null()) {
        return out;  // col = NULL is UNKNOWN for every row
      }
      if (table.IndexLookup(col->column(), *value, &out)) {
        ++stats_.index_lookups;
        stats_.rows_read += out.size();
        return out;
      }
    }
  }

  ASSIGN_OR_RETURN(std::shared_ptr<const TablePlan> plan, GetPlan(table, *pred));

  // Constant predicate: one evaluation decides for every row.
  if (plan->access == TablePlan::Access::kConstant) {
    auto value = sql::EvaluateConstant(*plan->constant, params);
    // The interpreter evaluates per row, so an empty table never surfaces
    // a constant-predicate error; preserve that.
    if (!value.ok()) {
      if (table.num_rows() == 0) {
        return std::vector<RowId>{};
      }
      return value.status();
    }
    Status truth_error = OkStatus();
    sql::Truth truth = sql::TruthOf(*value, &truth_error);
    if (!truth_error.ok()) {
      if (table.num_rows() == 0) {
        return std::vector<RowId>{};
      }
      return truth_error;
    }
    if (truth != sql::Truth::kTrue) {
      return std::vector<RowId>{};
    }
    std::vector<RowId> candidates = table.AllRowIds();
    stats_.rows_read += candidates.size();
    return candidates;
  }

  // Access path: seed candidates from the plan's probes. A scan never
  // materializes AllRowIds — the residual reads the column sidecar's slabs
  // in place instead of walking a candidate list.
  std::vector<RowId> candidates;
  bool scanned = false;
  switch (plan->access) {
    case TablePlan::Access::kProbe: {
      // Intersect all probe row sets, seeded from the smallest. Probes are
      // rank-ordered (equality first), so bail out early on an empty seed.
      bool seeded = false;
      std::vector<RowId> probe_rows;
      for (const IndexProbe& probe : plan->probes) {
        ASSIGN_OR_RETURN(bool probed, ExecuteProbe(table, probe, params, &probe_rows));
        if (!probed) {
          continue;  // index unavailable (defensive); rely on other probes
        }
        if (!seeded) {
          candidates = std::move(probe_rows);
          seeded = true;
        } else {
          std::vector<RowId> merged;
          merged.reserve(std::min(candidates.size(), probe_rows.size()));
          std::set_intersection(candidates.begin(), candidates.end(), probe_rows.begin(),
                                probe_rows.end(), std::back_inserter(merged));
          candidates = std::move(merged);
        }
        probe_rows.clear();
        if (seeded && candidates.empty()) {
          break;
        }
      }
      scanned = !seeded;
      break;
    }
    case TablePlan::Access::kUnion: {
      bool all_probed = true;
      std::vector<RowId> probe_rows;
      for (const IndexProbe& probe : plan->union_arms) {
        ASSIGN_OR_RETURN(bool probed, ExecuteProbe(table, probe, params, &probe_rows));
        if (!probed) {
          all_probed = false;  // an arm we cannot probe may match anything
          break;
        }
        candidates.insert(candidates.end(), probe_rows.begin(), probe_rows.end());
        probe_rows.clear();
      }
      if (all_probed) {
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
      } else {
        scanned = true;
      }
      break;
    }
    case TablePlan::Access::kFullScan:
    default:
      scanned = true;
      break;
  }
  if (scanned) {
    if (plan->exact) {
      // An exact plan has no residual to filter a scan with; this only
      // happens if a probe found its index missing, which cannot occur in
      // normal use: plans are dropped on every DDL and indexes never are.
      return Internal("exact plan \"" + plan->description + "\" lost its index on \"" +
                      table.schema().name() + "\"");
    }
    ++stats_.full_scans;
  }

  // Exact plan: the probes' row set IS the answer (see plan.h). Skipping
  // the per-row filter matches the interpreter on these shapes because the
  // index groups rows by the same value ordering SQL comparison uses.
  if (plan->exact) {
    stats_.rows_read += candidates.size();
    return candidates;
  }

  // Residual filter: the FULL compiled predicate over every candidate, one
  // chunk at a time (a lone probe candidate is a chunk of one).
  sql::BoundParams bound = plan->residual->BindParams(params);
  if (scanned) {
    return FilterScanVectorized(table, *plan->residual, bound);
  }
  return FilterCandidatesVectorized(table, candidates, *plan->residual, bound);
}

namespace {

// Shared by both vectorized filters: fold one MatchChunk run into the vector
// counters and collect the matching lanes.
struct VectorRunTotals {
  uint64_t lanes = 0;
  uint64_t matches = 0;
};

void AccountChunk(const sql::ChunkScratch& scratch, DbStats* stats,
                  VectorRunTotals* totals) {
  ++stats->chunks_scanned;
  stats->vector_ops += scratch.insns_executed;
  stats->vector_lanes += scratch.lanes_evaluated;
  stats->rows_read += scratch.lanes_evaluated;
  stats->rows_examined += scratch.lanes_evaluated;
  totals->lanes += scratch.lanes_evaluated;
  totals->matches += scratch.match_count;
}

void SettleDensity(const VectorRunTotals& totals, DbStats* stats) {
  if (totals.lanes > 0) {
    stats->selection_density_bp.store(totals.matches * 10000 / totals.lanes,
                                      std::memory_order_relaxed);
  }
}

}  // namespace

StatusOr<std::vector<RowId>> Database::FilterScanVectorized(
    const Table& table, const sql::CompiledPredicate& residual,
    const sql::BoundParams& bound) const {
  static thread_local sql::ChunkScratch scratch;
  const size_t width = table.schema().num_columns();
  std::vector<const sql::Value*> col_ptrs(width);
  std::vector<RowId> out;
  VectorRunTotals totals;
  const size_t num_slabs = table.NumColumnSlabs();
  for (size_t s = 0; s < num_slabs; ++s) {
    ASSIGN_OR_RETURN(const ColumnSlab* slab, table.GetColumnSlab(s));
    if (slab->live_rows == 0) {
      continue;
    }
    for (size_t c = 0; c < width; ++c) {
      col_ptrs[c] = slab->columns[c].data();
    }
    sql::RowChunk chunk;
    chunk.lanes = slab->lanes;
    chunk.row_width = width;
    chunk.columns = col_ptrs.data();
    chunk.active = slab->present.data();
    Status matched = residual.MatchChunk(chunk, bound, &scratch);
    AccountChunk(scratch, &stats_, &totals);
    RETURN_IF_ERROR(matched);
    for (size_t w = 0; w * 64 < slab->lanes; ++w) {
      uint64_t bits = scratch.match_bits[w];
      while (bits != 0) {
        const int lane = __builtin_ctzll(bits);
        bits &= bits - 1;
        out.push_back(slab->first_row + static_cast<RowId>(w * 64 + lane));
      }
    }
  }
  SettleDensity(totals, &stats_);
  return out;
}

StatusOr<std::vector<RowId>> Database::FilterCandidatesVectorized(
    const Table& table, const std::vector<RowId>& candidates,
    const sql::CompiledPredicate& residual, const sql::BoundParams& bound) const {
  static thread_local sql::ChunkScratch scratch;
  const size_t width = table.schema().num_columns();
  std::vector<const sql::Value*> row_ptrs;
  std::vector<RowId> lane_ids;
  row_ptrs.reserve(std::min<size_t>(candidates.size(), sql::kChunkLanes));
  lane_ids.reserve(row_ptrs.capacity());
  std::vector<RowId> out;
  VectorRunTotals totals;
  size_t i = 0;
  while (i < candidates.size()) {
    // Gather up to one chunk of resident rows. Row pointers stay valid for
    // the whole statement: eviction only runs at statement boundaries, and
    // map nodes are stable.
    row_ptrs.clear();
    lane_ids.clear();
    for (; i < candidates.size() && row_ptrs.size() < sql::kChunkLanes; ++i) {
      const Row* row = table.Find(candidates[i]);
      if (row == nullptr) {
        continue;  // gone (or faulted — the sticky check below surfaces it)
      }
      row_ptrs.push_back(row->data());
      lane_ids.push_back(candidates[i]);
    }
    if (row_ptrs.empty()) {
      continue;
    }
    sql::RowChunk chunk;
    chunk.lanes = row_ptrs.size();
    chunk.row_width = width;
    chunk.rows = row_ptrs.data();
    Status matched = residual.MatchChunk(chunk, bound, &scratch);
    AccountChunk(scratch, &stats_, &totals);
    RETURN_IF_ERROR(matched);
    for (size_t w = 0; w * 64 < chunk.lanes; ++w) {
      uint64_t bits = scratch.match_bits[w];
      while (bits != 0) {
        const int lane = __builtin_ctzll(bits);
        bits &= bits - 1;
        out.push_back(lane_ids[w * 64 + static_cast<size_t>(lane)]);
      }
    }
  }
  SettleDensity(totals, &stats_);
  RETURN_IF_ERROR(StickyCacheError());
  return out;
}

StatusOr<std::shared_ptr<const TablePlan>> Database::GetPlan(const Table& table,
                                                             const sql::Expr& pred) const {
  std::string key = table.schema().name();
  key += '\x1f';  // cannot appear in a table name; separates name from pred
  key += pred.ToString();
  {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      ++stats_.plan_cache_hits;
      return it->second;
    }
  }
  ++stats_.plan_cache_misses;
  // Build outside plan_mu_ (compilation is slow); first insert wins if two
  // threads raced on the same key.
  ASSIGN_OR_RETURN(std::shared_ptr<const TablePlan> plan, PlanPredicate(table, pred));
#ifndef NDEBUG
  // Debug builds statically check every compiled program before it enters
  // the cache: a malformed residual would otherwise run on every matching
  // row. Release builds skip this (tests cover the compiler exhaustively).
  if (plan->residual.has_value()) {
    sql::ProgramCheckOptions check;
    check.row_width = static_cast<int>(table.schema().num_columns());
    RETURN_IF_ERROR(sql::VerifyProgram(*plan->residual, check));
  }
#endif
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  // The engine's hot path emits unbounded streams of one-shot literal
  // predicates (`"id" = 42` per placeholder row); an epoch-style reset keeps
  // the cache from growing without bound. Reusable (parameterized) plans
  // re-enter within one statement each after a reset.
  if (plan_cache_.size() >= kMaxCachedPlans) {
    plan_cache_.clear();
  }
  auto [it, inserted] = plan_cache_.emplace(std::move(key), std::move(plan));
  return it->second;
}

StatusOr<bool> Database::ExecuteProbe(const Table& table, const IndexProbe& probe,
                                      const sql::ParamMap& params,
                                      std::vector<RowId>* out) const {
  out->clear();
  switch (probe.kind) {
    case IndexProbe::Kind::kEq: {
      ASSIGN_OR_RETURN(sql::Value value, sql::EvaluateConstant(*probe.eq_value, params));
      if (value.is_null()) {
        // col = NULL is UNKNOWN for every row: empty probe, no index touch.
        return true;
      }
      if (!table.IndexLookup(probe.column, value, out)) {
        return false;
      }
      ++stats_.index_lookups;
      return true;  // IndexLookup output is already sorted
    }
    case IndexProbe::Kind::kIn: {
      std::vector<RowId> item_rows;
      for (const sql::ExprPtr& item : probe.in_items) {
        ASSIGN_OR_RETURN(sql::Value value, sql::EvaluateConstant(*item, params));
        if (value.is_null()) {
          continue;  // col = NULL item never matches
        }
        if (!table.IndexLookup(probe.column, value, &item_rows)) {
          return false;
        }
        ++stats_.index_lookups;
        out->insert(out->end(), item_rows.begin(), item_rows.end());
      }
      std::sort(out->begin(), out->end());
      out->erase(std::unique(out->begin(), out->end()), out->end());
      return true;
    }
    case IndexProbe::Kind::kRange: {
      sql::Value lo, hi;
      if (probe.lo != nullptr) {
        ASSIGN_OR_RETURN(lo, sql::EvaluateConstant(*probe.lo, params));
      }
      if (probe.hi != nullptr) {
        ASSIGN_OR_RETURN(hi, sql::EvaluateConstant(*probe.hi, params));
      }
      if (!table.RangeLookup(probe.column, probe.lo != nullptr ? &lo : nullptr,
                             probe.lo_inclusive, probe.hi != nullptr ? &hi : nullptr,
                             probe.hi_inclusive, out)) {
        return false;
      }
      ++stats_.range_probes;
      return true;
    }
    case IndexProbe::Kind::kIsNull: {
      if (!table.NullLookup(probe.column, out)) {
        return false;
      }
      ++stats_.index_lookups;
      return true;  // null set iterates in ascending RowId order
    }
  }
  return false;
}

StatusOr<std::string> Database::DescribePlan(const std::string& table,
                                             const sql::Expr& pred) const {
  TableLock lock(this);
  lock.Lock({}, {table});
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return NotFound("no table \"" + table + "\"");
  }
  ASSIGN_OR_RETURN(std::shared_ptr<const TablePlan> plan, GetPlan(it->second, pred));
  return plan->description;
}

StatusOr<std::vector<RowRef>> Database::Select(const std::string& table, const sql::Expr* pred,
                                               const sql::ParamMap& params) const {
  TableLock lock(this);
  lock.Lock({}, {table});
  auto it = tables_.find(table);
  const Table* t = it == tables_.end() ? nullptr : &it->second;
  if (t == nullptr) {
    return NotFound("no table \"" + table + "\"");
  }
  CountStatement();
  ASSIGN_OR_RETURN(std::vector<RowId> ids, MatchRows(*t, pred, params));
  std::vector<RowRef> out;
  out.reserve(ids.size());
  for (RowId id : ids) {
    out.push_back(RowRef{id, t->Find(id)});
  }
  // No MaybeEvictPages here on purpose: the returned pointers live past the
  // stripe lock, and a later statement's eviction may clear any payload not
  // pinned by an open intent. Callers that hold rows across statements use
  // SelectRowsWithIds.
  RETURN_IF_ERROR(StickyCacheError());
  return out;
}

StatusOr<std::vector<Row>> Database::SelectRows(const std::string& table,
                                                const sql::Expr* pred,
                                                const sql::ParamMap& params) const {
  std::vector<Row> out;
  {
    TableLock lock(this);
    lock.Lock({}, {table});
    auto it = tables_.find(table);
    const Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    CountStatement();
    ASSIGN_OR_RETURN(std::vector<RowId> ids, MatchRows(*t, pred, params));
    out.reserve(ids.size());
    for (RowId id : ids) {
      const Row* row = t->Find(id);
      if (row != nullptr) {
        out.push_back(*row);
      }
    }
    RETURN_IF_ERROR(StickyCacheError());
  }
  RETURN_IF_ERROR(MaybeEvictPages());
  return out;
}

StatusOr<std::vector<std::pair<RowId, Row>>> Database::SelectRowsWithIds(
    const std::string& table, const sql::Expr* pred,
    const sql::ParamMap& params) const {
  std::vector<std::pair<RowId, Row>> out;
  {
    TableLock lock(this);
    lock.Lock({}, {table});
    auto it = tables_.find(table);
    const Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    CountStatement();
    ASSIGN_OR_RETURN(std::vector<RowId> ids, MatchRows(*t, pred, params));
    out.reserve(ids.size());
    for (RowId id : ids) {
      const Row* row = t->Find(id);
      if (row != nullptr) {
        out.emplace_back(id, *row);
      }
    }
    RETURN_IF_ERROR(StickyCacheError());
  }
  RETURN_IF_ERROR(MaybeEvictPages());
  return out;
}

StatusOr<size_t> Database::Count(const std::string& table, const sql::Expr* pred,
                                 const sql::ParamMap& params) const {
  size_t n = 0;
  {
    TableLock lock(this);
    lock.Lock({}, {table});
    auto it = tables_.find(table);
    const Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    CountStatement();
    ASSIGN_OR_RETURN(std::vector<RowId> ids, MatchRows(*t, pred, params));
    n = ids.size();
  }
  RETURN_IF_ERROR(MaybeEvictPages());
  return n;
}

StatusOr<size_t> Database::Update(const std::string& table, const sql::Expr* pred,
                                  const sql::ParamMap& params,
                                  const std::vector<Assignment>& assignments) {
  uint64_t wal_lsn = 0;
  size_t updated = 0;
  {
    TableLock lock(this);
    {
      std::vector<std::string> shared = ParentTables(table);
      std::vector<std::string> children = ChildTables(table);
      shared.insert(shared.end(), children.begin(), children.end());
      lock.Lock({table}, shared);
    }
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    const TableSchema& schema = t->schema();
    // Pre-validate assignment columns.
    std::vector<size_t> col_indices;
    col_indices.reserve(assignments.size());
    for (const Assignment& a : assignments) {
      int idx = schema.ColumnIndex(a.column);
      if (idx < 0) {
        return NotFound("unknown column \"" + a.column + "\" in table \"" + table + "\"");
      }
      col_indices.push_back(static_cast<size_t>(idx));
    }

    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();  // the SELECT phase
    ASSIGN_OR_RETURN(std::vector<RowId> ids, MatchRows(*t, pred, params));

    for (RowId id : ids) {
      const Row* row = t->Find(id);
      if (row == nullptr) {
        continue;
      }
      // Evaluate all assignment expressions against the pre-update row.
      std::vector<sql::Value> new_values;
      new_values.reserve(assignments.size());
      sql::ColumnResolver resolver = MakeRowResolver(schema, *row);
      for (const Assignment& a : assignments) {
        ASSIGN_OR_RETURN(sql::Value v, sql::Evaluate(*a.expr, resolver, params));
        new_values.push_back(std::move(v));
      }
      for (size_t k = 0; k < assignments.size(); ++k) {
        RETURN_IF_ERROR(SetColumnInTxn(tx, table, t, id, col_indices[k], std::move(new_values[k])));
      }
      ++updated;
      CountStatement();  // one UPDATE statement per row, as Edna issues them
    }
    // A nullptr Find above may be a page-fault failure rather than a row
    // deleted earlier in this statement; abort rather than under-update.
    RETURN_IF_ERROR(StickyCacheError());
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  RETURN_IF_ERROR(MaybeEvictPages());
  return updated;
}

// Private helper is declared inline here: performs an FK-checked single
// column write assuming a StatementScope/transaction is already active.
Status Database::SetColumnInTxn(TxnState& tx, const std::string& table_name, Table* t,
                                RowId id, size_t col_idx, sql::Value value) {
  const TableSchema& schema = t->schema();
  const ColumnDef& col = schema.columns()[col_idx];
  RETURN_IF_ERROR(ClaimIntent(tx, table_name, id));
  if (write_guard_) {
    RETURN_IF_ERROR(write_guard_(table_name, id, col.name));
  }

  // FK on this column: new value must resolve.
  if (const ForeignKeyDef* fk = schema.FindForeignKey(col.name); fk != nullptr) {
    RETURN_IF_ERROR(CheckFkTarget(*fk, value));
  }
  // If this column is the referenced PK of children, block changes that
  // would orphan them.
  if (schema.IsPrimaryKeyColumn(col.name)) {
    const Row* row = t->Find(id);
    if (row == nullptr) {
      return CacheFaultOr(NotFound("row vanished during update"));
    }
    const sql::Value& old = (*row)[col_idx];
    if (!old.SqlEquals(value)) {
      for (const ChildRef& child : ChildrenOf(table_name)) {
        if (child.fk.parent_column != col.name) {
          continue;
        }
        auto cit = tables_.find(child.child_table);
        const Table* ct = cit == tables_.end() ? nullptr : &cit->second;
        std::vector<RowId> kids;
        ++stats_.index_lookups;
        ct->IndexLookup(child.fk.column, old, &kids);
        if (!kids.empty()) {
          return IntegrityViolation("cannot change \"" + table_name + "." + col.name +
                                    "\": referenced by " + std::to_string(kids.size()) +
                                    " row(s) of \"" + child.child_table + "\"");
        }
      }
    }
  }
  ASSIGN_OR_RETURN(sql::Value old, t->UpdateColumn(id, col_idx, std::move(value)));
  ++stats_.rows_updated;
  LogUpdate(tx, table_name, id, col_idx, std::move(old));
  return OkStatus();
}

StatusOr<size_t> Database::BatchSetColumns(const std::string& table,
                                           const std::vector<BatchUpdate>& updates) {
  uint64_t wal_lsn = 0;
  {
    TableLock lock(this);
    {
      std::vector<std::string> shared = ParentTables(table);
      std::vector<std::string> children = ChildTables(table);
      shared.insert(shared.end(), children.begin(), children.end());
      lock.Lock({table}, shared);
    }
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();  // one multi-row statement
    for (const BatchUpdate& u : updates) {
      int idx = t->schema().ColumnIndex(u.column);
      if (idx < 0) {
        return NotFound("unknown column \"" + u.column + "\" in table \"" + table + "\"");
      }
      RETURN_IF_ERROR(SetColumnInTxn(tx, table, t, u.id, static_cast<size_t>(idx), u.value));
    }
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  RETURN_IF_ERROR(MaybeEvictPages());
  return updates.size();
}

StatusOr<size_t> Database::Delete(const std::string& table, const sql::Expr* pred,
                                  const sql::ParamMap& params) {
  uint64_t wal_lsn = 0;
  size_t deleted = 0;
  {
    TableLock lock(this);
    lock.Lock(DeleteClosure(table), {});
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();
    ASSIGN_OR_RETURN(std::vector<RowId> ids, MatchRows(*t, pred, params));
    for (RowId id : ids) {
      if (!t->Contains(id)) {
        continue;  // removed by an earlier cascade in this statement
      }
      RETURN_IF_ERROR(DeleteRowInternal(tx, table, id, 0));
      ++deleted;
      CountStatement();  // one DELETE statement per row
    }
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  RETURN_IF_ERROR(MaybeEvictPages());
  return deleted;
}

Status Database::DeleteRowInternal(TxnState& tx, const std::string& table, RowId id,
                                   int depth) {
  if (depth > kMaxCascadeDepth) {
    return IntegrityViolation("cascade depth limit exceeded (cycle in FK graph?)");
  }
  RETURN_IF_ERROR(ClaimIntent(tx, table, id));
  if (write_guard_) {
    RETURN_IF_ERROR(write_guard_(table, id, ""));
  }
  Table* t = MutableTable(table);
  if (t == nullptr) {
    return NotFound("no table \"" + table + "\"");
  }
  const Row* row_ptr = t->Find(id);
  if (row_ptr == nullptr) {
    return CacheFaultOr(NotFound(StrFormat("row id %llu not in table \"%s\"",
                                           static_cast<unsigned long long>(id),
                                           table.c_str())));
  }
  // Handle children referencing this row before removing it.
  const TableSchema& schema = t->schema();
  if (schema.primary_key().size() == 1) {
    const std::string& pk_col = schema.primary_key()[0];
    sql::Value pk_value = (*row_ptr)[static_cast<size_t>(schema.ColumnIndex(pk_col))];
    for (const ChildRef& child : ChildrenOf(table)) {
      Table* ct = MutableTable(child.child_table);
      std::vector<RowId> kids;
      ++stats_.index_lookups;
      if (!ct->IndexLookup(child.fk.column, pk_value, &kids)) {
        // Unindexed FK column (shouldn't happen: Table indexes FK columns).
        kids.clear();
        ct->Scan([&](RowId rid, const Row& r) {
          const sql::Value& v =
              r[static_cast<size_t>(ct->schema().ColumnIndex(child.fk.column))];
          if (!v.is_null() && v.SqlEquals(pk_value)) {
            kids.push_back(rid);
          }
        });
        ++stats_.full_scans;
      }
      if (kids.empty()) {
        continue;
      }
      switch (child.fk.on_delete) {
        case FkAction::kRestrict:
          return IntegrityViolation("cannot delete \"" + table + "\" row " +
                                    pk_value.ToSqlString() + ": referenced by " +
                                    std::to_string(kids.size()) + " row(s) of \"" +
                                    child.child_table + "\"");
        case FkAction::kCascade:
          for (RowId kid : kids) {
            if (ct->Contains(kid)) {
              RETURN_IF_ERROR(DeleteRowInternal(tx, child.child_table, kid, depth + 1));
            }
          }
          break;
        case FkAction::kSetNull: {
          int col_idx = ct->schema().ColumnIndex(child.fk.column);
          for (RowId kid : kids) {
            RETURN_IF_ERROR(ClaimIntent(tx, child.child_table, kid));
            ASSIGN_OR_RETURN(sql::Value old,
                             ct->UpdateColumn(kid, static_cast<size_t>(col_idx),
                                              sql::Value::Null()));
            ++stats_.rows_updated;
            LogUpdate(tx, child.child_table, kid, static_cast<size_t>(col_idx), std::move(old));
          }
          break;
        }
      }
    }
  } else if (!ChildrenOf(table).empty()) {
    return Internal("FK references a composite-PK table \"" + table + "\"");
  }

  ASSIGN_OR_RETURN(Row removed, t->Erase(id));
  ++stats_.rows_deleted;
  LogDelete(tx, table, id, std::move(removed));
  return OkStatus();
}

StatusOr<sql::Value> Database::GetColumn(const std::string& table, RowId id,
                                         const std::string& column) const {
  sql::Value out;
  {
    TableLock lock(this);
    lock.Lock({}, {table});
    auto it = tables_.find(table);
    const Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    const Row* row = t->Find(id);
    if (row == nullptr) {
      return CacheFaultOr(NotFound(StrFormat("row id %llu not in table \"%s\"",
                                             static_cast<unsigned long long>(id),
                                             table.c_str())));
    }
    int idx = t->schema().ColumnIndex(column);
    if (idx < 0) {
      return NotFound("unknown column \"" + column + "\" in table \"" + table + "\"");
    }
    ++stats_.rows_read;
    out = (*row)[static_cast<size_t>(idx)];
  }
  RETURN_IF_ERROR(MaybeEvictPages());
  return out;
}

StatusOr<Row> Database::GetRow(const std::string& table, RowId id) const {
  Row out;
  {
    TableLock lock(this);
    lock.Lock({}, {table});
    auto it = tables_.find(table);
    const Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    const Row* row = t->Find(id);
    if (row == nullptr) {
      return CacheFaultOr(NotFound(StrFormat("row id %llu not in table \"%s\"",
                                             static_cast<unsigned long long>(id),
                                             table.c_str())));
    }
    ++stats_.rows_read;
    out = *row;
  }
  RETURN_IF_ERROR(MaybeEvictPages());
  return out;
}

bool Database::RowExists(const std::string& table, RowId id) const {
  TableLock lock(this);
  lock.Lock({}, {table});
  auto it = tables_.find(table);
  return it != tables_.end() && it->second.Contains(id);
}

Status Database::SetColumn(const std::string& table, RowId id, const std::string& column,
                           sql::Value value) {
  uint64_t wal_lsn = 0;
  {
    TableLock lock(this);
    {
      std::vector<std::string> shared = ParentTables(table);
      std::vector<std::string> children = ChildTables(table);
      shared.insert(shared.end(), children.begin(), children.end());
      lock.Lock({table}, shared);
    }
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    int idx = t->schema().ColumnIndex(column);
    if (idx < 0) {
      return NotFound("unknown column \"" + column + "\" in table \"" + table + "\"");
    }
    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();
    RETURN_IF_ERROR(SetColumnInTxn(tx, table, t, id, static_cast<size_t>(idx), std::move(value)));
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  return MaybeEvictPages();
}

Status Database::DeleteRow(const std::string& table, RowId id) {
  uint64_t wal_lsn = 0;
  {
    TableLock lock(this);
    lock.Lock(DeleteClosure(table), {});
    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();
    RETURN_IF_ERROR(DeleteRowInternal(tx, table, id, 0));
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  return MaybeEvictPages();
}

Status Database::RestoreRow(const std::string& table, RowId id, Row row) {
  uint64_t wal_lsn = 0;
  {
    TableLock lock(this);
    lock.Lock({table}, ParentTables(table));
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    TxnState& tx = Txn();
    StatementScope scope(this, tx);
    CountStatement();
    RETURN_IF_ERROR(ClaimIntent(tx, table, id));
    RETURN_IF_ERROR(CheckRowFks(t->schema(), row));
    RETURN_IF_ERROR(t->InsertWithId(id, std::move(row)));
    ++stats_.rows_inserted;
    LogInsert(tx, table, id);
    RETURN_IF_ERROR(scope.Commit(&wal_lsn));
  }
  RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  return MaybeEvictPages();
}

Status Database::BulkLoadRow(const std::string& table, RowId id, Row row) {
  {
    TableLock lock(this);
    lock.Lock({table}, {});
    Table* t = MutableTable(table);
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    RETURN_IF_ERROR(t->InsertWithId(id, std::move(row)));
    ++stats_.rows_inserted;
  }
  return MaybeEvictPages();
}

Status Database::EnsureAutoCounterAtLeast(const std::string& table, int64_t v) {
  TableLock lock(this);
  lock.Lock({table}, {});
  Table* t = MutableTable(table);
  if (t == nullptr) {
    return NotFound("no table \"" + table + "\"");
  }
  t->EnsureAutoCounterAtLeast(v);
  return OkStatus();
}

StatusOr<RowId> Database::LookupPk(const std::string& table, const PkKey& key) const {
  TableLock lock(this);
  lock.Lock({}, {table});
  auto it = tables_.find(table);
  const Table* t = it == tables_.end() ? nullptr : &it->second;
  if (t == nullptr) {
    return NotFound("no table \"" + table + "\"");
  }
  ++stats_.index_lookups;
  return t->LookupPk(key);
}

Status Database::AddColumnToTable(const std::string& table, ColumnDef col,
                                  sql::Value fill) {
  if (InTransaction()) {
    return FailedPrecondition("cannot evolve the schema inside a transaction");
  }
  uint64_t wal_lsn = 0;
  {
    std::unique_lock<std::shared_mutex> catalog(catalog_mu_);
    auto it = tables_.find(table);
    Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    // A default makes the column restorable for pre-evolution reveal records;
    // require one (possibly NULL for nullable columns).
    if (!col.default_value.has_value()) {
      if (!col.nullable) {
        return InvalidArgument("new NOT NULL column \"" + col.name +
                               "\" needs a default value");
      }
      col.default_value = sql::Value::Null();
    }
    // Pre-run Table::AddColumn's own checks, so the write-ahead append below
    // can precede a then-infallible mutation (a logged DDL that failed in
    // memory would poison replay).
    if (t->schema().HasColumn(col.name)) {
      return AlreadyExists("column \"" + col.name + "\" already in table \"" +
                           table + "\"");
    }
    if (!ValueMatchesType(fill, col.type)) {
      return InvalidArgument("fill value " + fill.ToSqlString() +
                             " does not match new column type " + ColumnTypeName(col.type));
    }
    if (fill.is_null() && !col.nullable) {
      return InvalidArgument("NULL fill for NOT NULL column \"" + col.name + "\"");
    }
    if (col.auto_increment) {
      return InvalidArgument("cannot add an auto-increment column to a populated table");
    }
    if (wal_sink_ != nullptr) {
      WalRecord rec;
      rec.kind = WalRecord::Kind::kAddColumn;
      rec.table = table;
      rec.column = col;  // post-fixup, so replay sees the same default
      rec.fill = fill;
      ASSIGN_OR_RETURN(wal_lsn, wal_sink_->AppendDdl(rec));
    }
    TableSchema* catalog_entry = schema_.FindMutableTable(table);
    RETURN_IF_ERROR(t->AddColumn(col, fill));
    catalog_entry->AddColumn(std::move(col));
    InvalidatePlans();
  }
  return WaitWalDurable(wal_lsn);
}

Status Database::CreateIndex(const std::string& table, const std::string& column) {
  uint64_t wal_lsn = 0;
  {
    std::unique_lock<std::shared_mutex> catalog(catalog_mu_);
    auto it = tables_.find(table);
    Table* t = it == tables_.end() ? nullptr : &it->second;
    if (t == nullptr) {
      return NotFound("no table \"" + table + "\"");
    }
    // Write-ahead once the only failure BuildIndex can hit (missing column)
    // is excluded; index builds are idempotent on replay.
    if (t->schema().ColumnIndex(column) < 0) {
      return NotFound("no column \"" + column + "\" in table \"" + table + "\"");
    }
    if (wal_sink_ != nullptr) {
      WalRecord rec;
      rec.kind = WalRecord::Kind::kCreateIndex;
      rec.table = table;
      rec.index_column = column;
      ASSIGN_OR_RETURN(wal_lsn, wal_sink_->AppendDdl(rec));
    }
    RETURN_IF_ERROR(t->BuildIndex(column));
    TableSchema* catalog_entry = schema_.FindMutableTable(table);
    if (!catalog_entry->HasColumn(column)) {
      return Internal("catalog desync after index build");
    }
    bool listed = false;
    for (const IndexDef& idx : catalog_entry->indexes()) {
      if (idx.column == column) {
        listed = true;
      }
    }
    if (!listed) {
      catalog_entry->AddIndex(column);
    }
    InvalidatePlans();
  }
  return WaitWalDurable(wal_lsn);
}

// --- Transactions ------------------------------------------------------------

Status Database::Begin() {
  EDNA_FAIL_POINT(failpoints::kDbBegin);
  TxnState& tx = Txn();
  if (tx.in_txn) {
    return FailedPrecondition("transaction already active");
  }
  tx.in_txn = true;
  tx.undo_log.clear();
  return OkStatus();
}

Status Database::Commit() { return CommitTxn(/*sync=*/true); }

Status Database::CommitWithoutSync() { return CommitTxn(/*sync=*/false); }

Status Database::CommitTxn(bool sync) {
  EDNA_FAIL_POINT(failpoints::kDbCommit);
  TxnState& tx = Txn();
  if (!tx.in_txn) {
    return FailedPrecondition("no active transaction");
  }
  uint64_t wal_lsn = 0;
  if (HasWalSink() && !tx.undo_log.empty()) {
    // Build and append the net-change record under SHARED locks on the
    // touched tables: intents keep concurrent writers out of our rows, and
    // counter records replay as raise-to-max, so shared suffices — and it
    // lets independent explicit commits append concurrently.
    StatusOr<uint64_t> appended = [&]() -> StatusOr<uint64_t> {
      std::vector<std::string> touched;
      touched.reserve(tx.undo_log.size());
      for (const UndoEntry& e : tx.undo_log) {
        touched.push_back(e.table);
      }
      TableLock lock(this);
      lock.Lock({}, touched);
      return AppendCommitToWal(tx, 0);
    }();
    if (!appended.ok()) {
      if (FailPoints::IsSimulatedCrash(appended.status())) {
        // Freeze: the transaction stays open (undo intact, intents held) so
        // recovery sees the same state a process death mid-commit leaves.
        return appended.status();
      }
      // The durability layer refused the commit; roll back so memory agrees
      // with the log, which carries no record of this transaction.
      Status rb = Rollback();
      if (!rb.ok()) {
        EDNA_LOG(kError) << "rollback after failed WAL append: " << rb;
      }
      return appended.status();
    }
    wal_lsn = *appended;
  }
  tx.in_txn = false;
  tx.undo_log.clear();
  ReleaseIntents(tx, 0);
  if (sync) {
    RETURN_IF_ERROR(WaitWalDurable(wal_lsn));
  }
  return MaybeEvictPages();
}

Status Database::Rollback() {
  EDNA_FAIL_POINT(failpoints::kDbRollback);
  TxnState& tx = Txn();
  if (!tx.in_txn) {
    return FailedPrecondition("no active transaction");
  }
  WalSink* sink = nullptr;
  {
    std::vector<std::string> touched;
    for (const UndoEntry& e : tx.undo_log) {
      touched.push_back(e.table);
    }
    TableLock lock(this);
    lock.Lock(touched, {});
    ApplyUndo(tx, 0);
    sink = wal_sink_;
  }
  tx.in_txn = false;
  ReleaseIntents(tx, 0);
  if (sink != nullptr) {
    sink->OnRollback();
  }
  return MaybeEvictPages();
}

bool Database::InTransaction() const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = txns_.find(std::this_thread::get_id());
  return it != txns_.end() && it->second.in_txn;
}

bool Database::TransactionHasWrites() const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = txns_.find(std::this_thread::get_id());
  return it != txns_.end() && it->second.in_txn && !it->second.undo_log.empty();
}

bool Database::AnyTransactionActive() const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  for (const auto& [tid, tx] : txns_) {
    if (tx.in_txn) {
      return true;
    }
  }
  return false;
}

Status Database::RollbackAll() {
  // Collect every open transaction's state first (txn_mu_ is below the
  // stripes in the hierarchy, so it cannot be held while locking them).
  std::vector<TxnState*> open;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (auto& [tid, tx] : txns_) {
      if (tx.in_txn) {
        open.push_back(&tx);
      }
    }
  }
  if (open.empty()) {
    return OkStatus();
  }
  TableLock lock(this);
  {
    std::vector<std::string> touched;
    for (TxnState* tx : open) {
      for (const UndoEntry& e : tx->undo_log) {
        touched.push_back(e.table);
      }
    }
    lock.Lock(touched, {});
  }
  // Intents keep concurrent transactions' writes disjoint, so the undo of
  // one frozen transaction never collides with another's.
  for (TxnState* tx : open) {
    ApplyUndo(*tx, 0);
    tx->in_txn = false;
    ReleaseIntents(*tx, 0);
  }
  return OkStatus();
}

// --- Integrity & maintenance -------------------------------------------------

Status Database::CheckIntegrity() const {
  {
    TableLock lock(this);
    lock.LockAllShared();
    for (const auto& [name, table] : tables_) {
      // With a pager attached this faults every page in (the audit reads all
      // payloads); residency transiently exceeds the budget and the eviction
      // pass below restores it.
      RETURN_IF_ERROR(table.CheckIndexConsistency());
      const TableSchema& schema = table.schema();
      for (const ForeignKeyDef& fk : schema.foreign_keys()) {
        auto pit = tables_.find(fk.parent_table);
        const Table* parent = pit == tables_.end() ? nullptr : &pit->second;
        if (parent == nullptr) {
          return IntegrityViolation("missing parent table \"" + fk.parent_table + "\"");
        }
        int col_idx = schema.ColumnIndex(fk.column);
        Status bad = OkStatus();
        table.Scan([&](RowId, const Row& row) {
          if (!bad.ok()) {
            return;
          }
          const sql::Value& v = row[static_cast<size_t>(col_idx)];
          if (v.is_null()) {
            return;
          }
          PkKey key;
          key.values.push_back(v);
          if (!parent->LookupPk(key).ok()) {
            bad = IntegrityViolation("dangling foreign key \"" + name + "." + fk.column + "\" = " +
                                     v.ToSqlString() + " -> \"" + fk.parent_table + "\"");
          }
        });
        RETURN_IF_ERROR(bad);
        RETURN_IF_ERROR(StickyCacheError());
      }
    }
  }
  return MaybeEvictPages();
}

std::unique_ptr<Database> Database::Snapshot() const {
  TableLock lock(this);
  lock.LockAllShared();
  auto copy = std::make_unique<Database>();
  copy->schema_ = schema_;
  for (const auto& [name, table] : tables_) {
    copy->tables_.emplace(name, table.Clone());
  }
  return copy;
}

StatusOr<std::unique_ptr<Database>> Database::SnapshotForCheckpoint(
    uint64_t* wal_mark) const {
  TableLock lock(this);
  lock.LockAllShared();
  // With every stripe held shared, no statement is mid-mutation and no open
  // transaction can add one; a transaction still open HERE has uncommitted
  // rows sitting in the tables, which must not reach a snapshot.
  if (AnyTransactionActive()) {
    return FailedPrecondition(
        "checkpoint requires quiescent transactions (an open transaction's "
        "uncommitted rows would leak into the snapshot)");
  }
  if (wal_mark != nullptr) {
    *wal_mark = wal_sink_ != nullptr ? wal_sink_->AppendedLsn() : 0;
  }
  auto copy = std::make_unique<Database>();
  copy->schema_ = schema_;
  for (const auto& [name, table] : tables_) {
    copy->tables_.emplace(name, table.Clone());
  }
  // Clone reads spilled pages through the extent files; a read failure is
  // recorded sticky and must abort the checkpoint (the clone is incomplete).
  RETURN_IF_ERROR(StickyCacheError());
  return copy;
}

size_t Database::TotalRows() const {
  TableLock lock(this);
  lock.LockAllShared();
  size_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table.num_rows();
  }
  return total;
}

void Database::SetWriteGuard(WriteGuard guard) {
  std::unique_lock<std::shared_mutex> catalog(catalog_mu_);
  write_guard_ = std::move(guard);
}

bool Database::HasWriteGuard() const {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  return static_cast<bool>(write_guard_);
}

}  // namespace edna::db
