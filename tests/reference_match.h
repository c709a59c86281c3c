// Reference matcher for the database's residual executor. The reference
// reads every row of the table (SelectRowsWithIds with no predicate) and
// filters it with the AST interpreter (sql::EvaluatePredicate over
// db::MakeRowResolver), one row at a time in RowId order. That is the
// behaviour the planner, the index probes and the chunked residual filters
// must reproduce: the same rows in the same order, or the same first error.
#ifndef TESTS_REFERENCE_MATCH_H_
#define TESTS_REFERENCE_MATCH_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/sql/ast.h"
#include "src/sql/eval.h"

namespace edna::db::testing {

// Ids of the rows of `table` that `pred` matches, in RowId order, or the
// error of the first row (in RowId order) whose evaluation fails.
inline StatusOr<std::vector<RowId>> ReferenceMatch(const Database& db, const std::string& table,
                                                   const sql::Expr& pred,
                                                   const sql::ParamMap& params) {
  const Table* t = db.FindTable(table);
  if (t == nullptr) {
    return NotFound("no table \"" + table + "\"");
  }
  ASSIGN_OR_RETURN(auto rows, db.SelectRowsWithIds(table, nullptr, {}));
  std::vector<RowId> ids;
  for (const auto& [id, row] : rows) {
    ASSIGN_OR_RETURN(bool match, sql::EvaluatePredicate(
                                     pred, MakeRowResolver(t->schema(), row), params));
    if (match) {
      ids.push_back(id);
    }
  }
  return ids;
}

// Runs `pred` through the engine (SelectRowsWithIds) and checks it against
// ReferenceMatch: equal ids, or an equal first error (code and message).
inline ::testing::AssertionResult MatchesReference(const Database& db, const std::string& table,
                                                   const sql::Expr& pred,
                                                   const sql::ParamMap& params) {
  StatusOr<std::vector<RowId>> want = ReferenceMatch(db, table, pred, params);
  auto got_rows = db.SelectRowsWithIds(table, &pred, params);
  const std::string where = table + " WHERE " + pred.ToString();
  if (!want.ok() || !got_rows.ok()) {
    const Status& w = want.status();
    const Status& g = got_rows.status();
    if (w.code() == g.code() && w.message() == g.message()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << where << ": engine says \"" << g
                                         << "\", reference says \"" << w << "\"";
  }
  std::vector<RowId> got;
  got.reserve(got_rows->size());
  for (const auto& entry : *got_rows) {
    got.push_back(entry.first);
  }
  if (got != *want) {
    return ::testing::AssertionFailure() << where << ": engine matched " << got.size()
                                         << " row(s), reference " << want->size();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace edna::db::testing

#endif  // TESTS_REFERENCE_MATCH_H_
