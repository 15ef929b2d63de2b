// Independent answers for the benchmark's correctness checks.
//
// The oracle recomputes every view the benchmark checks with plain hash-map
// loops over a source state (the change stream's mirror of the base
// tables).  It shares no code with the library's view definitions,
// maintenance terms, join kernels or aggregation: revenue is accumulated in
// 128-bit integers from the raw columns, and multiplicities multiply the
// way bag semantics says they must.  A window is correct when every derived
// extent equals the oracle's answer for the batch just applied and every
// base extent equals the mirror.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/tuple.h"

namespace perfbench {

/// One group of a summary view: SUM of its measure and the hidden __count
/// (the number of joined source rows, counted with multiplicity).
struct Agg {
  __int128 sum = 0;
  int64_t count = 0;
};

/// Group-key tuple -> aggregate.
using Answer = std::unordered_map<wuw::Tuple, Agg, wuw::TupleHash>;

/// The oracle's answers for one source state.
struct OracleAnswers {
  Answer q3;
  Answer q5;
  Answer q10;
  Answer q3_by_priority;
  Answer q10_by_nation;
  Answer q10_order_status;
  /// SUM(l_extendedprice) per l_returnflag: the read mix's base-view query.
  Answer lineitem_by_flag;
};

/// Computes every answer from the six TPC-D base tables in `source`.
OracleAnswers ComputeOracle(const wuw::Catalog& source);

/// The answer the oracle holds for a summary view name ("Q3", ...,
/// "Q10_ORDER_STATUS"); nullptr for other names.
const Answer* AnswerFor(const OracleAnswers& answers, const std::string& view);

/// One query of the reader mix and the oracle answer it must return.
struct ReadQuery {
  const char* name;
  const char* sql;
  Answer OracleAnswers::*answer;
};

/// The read mix, cycled in order by every workload's readers.
extern const ReadQuery kReadMix[3];

using RowList = std::vector<std::pair<wuw::Tuple, int64_t>>;

/// Compares aggregate rows laid out as (group keys..., SUM, __count), each
/// stored once, against `expected`.  Returns "" when they match, else a
/// description of the first difference.
std::string CompareAggregate(const RowList& rows, const Answer& expected);

/// Compares a base extent with its source mirror as multisets, through a
/// hash map built here.  Returns "" when they match.
std::string CompareBase(const wuw::Table& extent, const wuw::Table& mirror);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
