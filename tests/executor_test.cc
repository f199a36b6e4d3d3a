// Unit tests for the graph-exploration executor and planner, using a local
// in-memory NeighborSource (no cluster machinery).

#include <gtest/gtest.h>

#include <map>

#include "src/engine/executor.h"
#include "src/sparql/parser.h"
#include "src/store/gstore.h"
#include "src/store/planner.h"

namespace wukongs {
namespace {

// Adapts a single GStore shard as a NeighborSource.
class LocalSource : public NeighborSource {
 public:
  explicit LocalSource(const GStore* store) : store_(store) {}

  void GetNeighbors(Key key, std::vector<VertexId>* out) const override {
    store_->GetEdgesInto(key, GStore::kSnapshotInfinity, &tmp_);
    out->insert(out->end(), tmp_.begin(), tmp_.end());
  }
  size_t EstimateCount(Key key) const override {
    return store_->EdgeCount(key, GStore::kSnapshotInfinity);
  }

 private:
  const GStore* store_;
  mutable std::vector<VertexId> tmp_;
};

// Builds the paper's Fig. 1 stored graph (X-Lab).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto load = [&](const char* s, const char* p, const char* o) {
      store_.LoadTriple({strings_.InternVertex(s), strings_.InternPredicate(p),
                         strings_.InternVertex(o)});
    };
    load("Logan", "fo", "Erik");
    load("Erik", "fo", "Logan");
    load("Logan", "po", "T-13");
    load("Logan", "po", "T-14");
    load("Erik", "po", "T-12");
    load("T-12", "ht", "#sosp17");
    load("T-13", "ht", "#sosp17");
    load("Erik", "li", "T-13");
    load("Logan", "li", "T-12");

    source_ = std::make_unique<LocalSource>(&store_);
    ctx_.sources = {source_.get()};
    ctx_.strings = &strings_;
  }

  QueryResult Run(const std::string& text) {
    auto q = ParseQuery(text, &strings_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    std::vector<int> plan = PlanQuery(*q, ctx_);
    auto result = ExecuteQuery(*q, plan, ctx_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  }

  std::string VertexName(const ResultValue& v) {
    return *strings_.VertexString(v.vid);
  }

  StringServer strings_;
  GStore store_{0};
  std::unique_ptr<LocalSource> source_;
  ExecContext ctx_;
};

TEST_F(ExecutorTest, OneShotQueryFromPaper) {
  // Paper Fig. 2(a): posts by Logan, tagged #sosp17, liked by Erik -> T-13.
  QueryResult r = Run(
      "SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 . Erik li ?X }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(VertexName(r.rows[0][0]), "T-13");
}

TEST_F(ExecutorTest, ConstantToVariableExpansion) {
  QueryResult r = Run("SELECT ?X WHERE { Logan po ?X }");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, BackwardExpansion) {
  QueryResult r = Run("SELECT ?X WHERE { ?X ht #sosp17 }");
  ASSERT_EQ(r.rows.size(), 2u);  // T-12, T-13.
}

TEST_F(ExecutorTest, UnboundPatternUsesIndexVertex) {
  QueryResult r = Run("SELECT ?X ?Y WHERE { ?X po ?Y }");
  ASSERT_EQ(r.rows.size(), 3u);
}

TEST_F(ExecutorTest, JoinAcrossPatterns) {
  // Who follows someone who liked T-13? Erik li T-13, Logan fo Erik.
  QueryResult r = Run("SELECT ?X WHERE { ?X fo ?Y . ?Y li T-13 }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(VertexName(r.rows[0][0]), "Logan");
}

TEST_F(ExecutorTest, ExistenceCheckPrunesRows) {
  // Mutual follow keeps both; requiring po T-12 keeps only Erik.
  QueryResult r = Run("SELECT ?X WHERE { ?X fo ?Y . ?X po T-12 }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(VertexName(r.rows[0][0]), "Erik");
}

TEST_F(ExecutorTest, EmptyResultOnNoMatch) {
  QueryResult r = Run("SELECT ?X WHERE { Thor po ?X }");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, ConstantOnlyPatternGatesResults) {
  // "Logan fo Erik" holds, so the other pattern's bindings survive.
  QueryResult r = Run("SELECT ?X WHERE { Logan fo Erik . Logan po ?X }");
  EXPECT_EQ(r.rows.size(), 2u);
  // "Logan fo Thor" fails: nothing survives.
  QueryResult r2 = Run("SELECT ?X WHERE { Logan po ?X . Logan fo Thor }");
  EXPECT_TRUE(r2.rows.empty());
}

TEST_F(ExecutorTest, CountAggregate) {
  QueryResult r = Run("SELECT COUNT(?X) WHERE { ?X ht #sosp17 }");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_TRUE(r.rows[0][0].is_number);
  EXPECT_DOUBLE_EQ(r.rows[0][0].number, 2.0);
}

TEST_F(ExecutorTest, GroupByCounts) {
  QueryResult r = Run(
      "SELECT ?X COUNT(?Y) WHERE { ?X po ?Y } GROUP BY ?X");
  ASSERT_EQ(r.rows.size(), 2u);  // Logan (2 posts), Erik (1 post).
  std::map<std::string, double> counts;
  for (const auto& row : r.rows) {
    counts[VertexName(row[0])] = row[1].number;
  }
  EXPECT_DOUBLE_EQ(counts["Logan"], 2.0);
  EXPECT_DOUBLE_EQ(counts["Erik"], 1.0);
}

TEST_F(ExecutorTest, FilterEqualityOnVertex) {
  QueryResult r = Run("SELECT ?X ?Y WHERE { ?X po ?Y . FILTER (?X = Logan) }");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, NumericAggregates) {
  // Numeric literals as objects.
  auto load = [&](const char* s, const char* p, const char* o) {
    store_.LoadTriple({strings_.InternVertex(s), strings_.InternPredicate(p),
                       strings_.InternVertex(o)});
  };
  load("sensor1", "val", "10");
  load("sensor1", "val", "20");
  load("sensor2", "val", "5");
  QueryResult r = Run(
      "SELECT ?S (AVG(?V) AS ?a) (MAX(?V) AS ?m) WHERE { ?S val ?V } GROUP BY ?S");
  ASSERT_EQ(r.rows.size(), 2u);
  std::map<std::string, std::pair<double, double>> by_sensor;
  for (const auto& row : r.rows) {
    by_sensor[VertexName(row[0])] = {row[1].number, row[2].number};
  }
  EXPECT_DOUBLE_EQ(by_sensor["sensor1"].first, 15.0);
  EXPECT_DOUBLE_EQ(by_sensor["sensor1"].second, 20.0);
  EXPECT_DOUBLE_EQ(by_sensor["sensor2"].first, 5.0);
}

TEST_F(ExecutorTest, NumericFilter) {
  auto load = [&](const char* s, const char* p, const char* o) {
    store_.LoadTriple({strings_.InternVertex(s), strings_.InternPredicate(p),
                       strings_.InternVertex(o)});
  };
  load("sensor1", "val", "10");
  load("sensor2", "val", "50");
  QueryResult r = Run("SELECT ?S WHERE { ?S val ?V . FILTER (?V > 30) }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(VertexName(r.rows[0][0]), "sensor2");
}

TEST_F(ExecutorTest, DistinctKeysNumbersOnTheirBitPattern) {
  // Negative values are keyed like any other, and values less than 1e-6
  // apart stay distinct; -0.0 and 0.0 are one value.
  Query q;
  q.distinct = true;
  QueryResult r;
  for (double v : {-2.5, -2.5, 0.1234561, 0.1234562}) {
    r.rows.push_back({ResultValue::Number(v)});
  }
  ASSERT_TRUE(FinalizeSolution(q, ctx_, &r).ok());
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].number, -2.5);
  EXPECT_EQ(r.rows[1][0].number, 0.1234561);
  EXPECT_EQ(r.rows[2][0].number, 0.1234562);

  QueryResult zeros;
  zeros.rows = {{ResultValue::Number(0.0)}, {ResultValue::Number(-0.0)}};
  ASSERT_TRUE(FinalizeSolution(q, ctx_, &zeros).ok());
  EXPECT_EQ(zeros.rows.size(), 1u);
}

TEST_F(ExecutorTest, PlannerStartsFromConstant) {
  auto q = ParseQuery("SELECT ?X ?Y WHERE { ?X fo ?Y . Logan po ?Z . ?Z ht ?W }",
                      &strings_);
  ASSERT_TRUE(q.ok());
  std::vector<int> plan = PlanQuery(*q, ctx_);
  // First step must be the constant-rooted pattern (Logan po ?Z).
  EXPECT_EQ(plan[0], 1);
}

TEST_F(ExecutorTest, PlannerPrefersConnectedPatterns) {
  auto q = ParseQuery("SELECT ?X WHERE { Erik li ?X . ?X ht ?T . ?A fo ?B }",
                      &strings_);
  ASSERT_TRUE(q.ok());
  std::vector<int> plan = PlanQuery(*q, ctx_);
  EXPECT_EQ(plan[0], 0);  // Constant seed.
  EXPECT_EQ(plan[1], 1);  // Connected via ?X, before the disconnected ?A fo ?B.
}

TEST_F(ExecutorTest, StepHookObservesEveryStep) {
  auto q = ParseQuery("SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 }", &strings_);
  ASSERT_TRUE(q.ok());
  std::vector<int> plan = PlanQuery(*q, ctx_);
  size_t steps = 0;
  auto table = ExecutePatterns(*q, plan, ctx_,
                               [&](const TriplePattern&, size_t, size_t, size_t) {
                                 ++steps;
                               });
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(steps, 2u);
}

}  // namespace
}  // namespace wukongs
