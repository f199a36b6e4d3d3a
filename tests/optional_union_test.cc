// Tests for OPTIONAL (left-join) and UNION (alternation) — the SPARQL
// features beyond the paper's prototype — on stored data, stream windows,
// and in combination with filters and solution modifiers.

#include <gtest/gtest.h>

#include <set>

#include "src/cluster/cluster.h"
#include "src/sparql/parser.h"
#include "src/testkit/reference_oracle.h"

namespace wukongs {
namespace {

class OptionalUnionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.nodes = 2;
    config.batch_interval_ms = 100;
    cluster_ = std::make_unique<Cluster>(config);
    stream_ = *cluster_->DefineStream("S");

    StringServer* s = cluster_->strings();
    auto triple = [&](const char* a, const char* p, const char* o) {
      return Triple{s->InternVertex(a), s->InternPredicate(p), s->InternVertex(o)};
    };
    // alice and bob have emails; carol does not. alice follows bob & carol.
    cluster_->LoadBase(std::vector<Triple>{
        triple("alice", "fo", "bob"), triple("alice", "fo", "carol"),
        triple("bob", "fo", "carol"), triple("alice", "email", "a@x"),
        triple("bob", "email", "b@x"), triple("alice", "age", "30"),
        triple("bob", "age", "40")});

    auto tuple = [&](const char* a, const char* p, const char* o, StreamTime ts) {
      return StreamTuple{{s->InternVertex(a), s->InternPredicate(p),
                          s->InternVertex(o)},
                         ts,
                         TupleKind::kTimeless};
    };
    ASSERT_TRUE(cluster_
                    ->FeedStream(stream_, {tuple("alice", "po", "p1", 100),
                                           tuple("carol", "po", "p2", 300)})
                    .ok());
    cluster_->AdvanceStreams(1000);
  }

  std::string Name(const ResultValue& v) {
    if (v.vid == kUnboundBinding) {
      return "";
    }
    return *cluster_->strings()->VertexString(v.vid);
  }

  std::unique_ptr<Cluster> cluster_;
  StreamId stream_ = 0;
};

TEST_F(OptionalUnionTest, OptionalKeepsUnmatchedRows) {
  // Everyone alice follows, with email if they have one.
  auto exec = cluster_->OneShot(R"(
      SELECT ?F ?E WHERE {
        alice fo ?F
        OPTIONAL { ?F email ?E }
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->result.rows.size(), 2u);
  std::set<std::pair<std::string, std::string>> rows;
  for (const auto& row : exec->result.rows) {
    rows.emplace(Name(row[0]), Name(row[1]));
  }
  EXPECT_TRUE(rows.count({"bob", "b@x"}));
  EXPECT_TRUE(rows.count({"carol", ""}));  // carol has no email: unbound.
}

TEST_F(OptionalUnionTest, OptionalWithMultipleMatchesExpands) {
  // bob is followed by alice; carol by alice and bob.
  auto exec = cluster_->OneShot(R"(
      SELECT ?F ?W WHERE {
        alice fo ?F
        OPTIONAL { ?W fo ?F }
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  // bob: 1 follower (alice); carol: 2 followers -> 3 rows total.
  EXPECT_EQ(exec->result.rows.size(), 3u);
}

TEST_F(OptionalUnionTest, TwoOptionalGroupsAreIndependent) {
  auto exec = cluster_->OneShot(R"(
      SELECT ?F ?E ?A WHERE {
        alice fo ?F
        OPTIONAL { ?F email ?E }
        OPTIONAL { ?F age ?A }
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->result.rows.size(), 2u);
  for (const auto& row : exec->result.rows) {
    if (Name(row[0]) == "carol") {
      EXPECT_EQ(Name(row[1]), "");
      EXPECT_EQ(Name(row[2]), "");
    } else {
      EXPECT_EQ(Name(row[1]), "b@x");
      EXPECT_EQ(Name(row[2]), "40");
    }
  }
}

TEST_F(OptionalUnionTest, OptionalOverStreamWindow) {
  // Followees of alice, with their fresh posts if any.
  auto handle = cluster_->RegisterContinuous(R"(
      REGISTER QUERY q AS
      SELECT ?F ?P
      FROM STREAM <S> [RANGE 1s STEP 100ms]
      WHERE {
        alice fo ?F
        OPTIONAL { GRAPH <S> { ?F po ?P } }
      })");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto exec = cluster_->ExecuteContinuousAt(*handle, 1000);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  std::set<std::pair<std::string, std::string>> rows;
  for (const auto& row : exec->result.rows) {
    rows.emplace(Name(row[0]), Name(row[1]));
  }
  EXPECT_TRUE(rows.count({"carol", "p2"}));  // Posted in the window.
  EXPECT_TRUE(rows.count({"bob", ""}));      // Did not.
}

TEST_F(OptionalUnionTest, UnionConcatenatesBranches) {
  auto exec = cluster_->OneShot(R"(
      SELECT ?X WHERE {
        { alice fo ?X } UNION { ?X email b@x }
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  // Branch 1: bob, carol. Branch 2: bob. Bag union: 3 rows.
  EXPECT_EQ(exec->result.rows.size(), 3u);
}

TEST_F(OptionalUnionTest, UnionWithDistinctDeduplicates) {
  auto exec = cluster_->OneShot(R"(
      SELECT DISTINCT ?X WHERE {
        { alice fo ?X } UNION { ?X email b@x }
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->result.rows.size(), 2u);  // bob, carol.
}

TEST_F(OptionalUnionTest, UnionAcrossGraphs) {
  // People who follow carol (stored) or posted in the window (stream).
  auto handle = cluster_->RegisterContinuous(R"(
      REGISTER QUERY q AS
      SELECT DISTINCT ?X
      FROM STREAM <S> [RANGE 1s STEP 100ms]
      WHERE {
        { ?X fo carol } UNION { GRAPH <S> { ?X po ?P } }
      })");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto exec = cluster_->ExecuteContinuousAt(*handle, 1000);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  std::set<std::string> names;
  for (const auto& row : exec->result.rows) {
    names.insert(Name(row[0]));
  }
  EXPECT_EQ(names, (std::set<std::string>{"alice", "bob", "carol"}));
}

TEST_F(OptionalUnionTest, UnionThreeBranches) {
  auto exec = cluster_->OneShot(R"(
      SELECT ?X WHERE {
        { ?X email a@x } UNION { ?X email b@x } UNION { ?X age 30 }
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->result.rows.size(), 3u);
}

TEST_F(OptionalUnionTest, FilterAppliesToUnionBranches) {
  auto exec = cluster_->OneShot(R"(
      SELECT ?X ?A WHERE {
        { ?X age ?A } UNION { alice fo ?X . ?X age ?A }
        FILTER (?A > 35)
      })");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  // Branch 1: bob(40). Branch 2: bob(40). alice(30) filtered in both.
  EXPECT_EQ(exec->result.rows.size(), 2u);
  for (const auto& row : exec->result.rows) {
    EXPECT_EQ(Name(row[0]), "bob");
  }
}

TEST_F(OptionalUnionTest, ParserRejectsSingleBracedGroup) {
  StringServer s;
  EXPECT_FALSE(ParseQuery("SELECT ?X WHERE { { ?X a b } }", &s).ok());
}

TEST_F(OptionalUnionTest, ParserRejectsAggregateOverUnion) {
  StringServer s;
  EXPECT_FALSE(ParseQuery(
                   "SELECT COUNT(?X) WHERE { { ?X a b } UNION { ?X c d } }", &s)
                   .ok());
}

TEST_F(OptionalUnionTest, ParserRejectsNestedOptional) {
  StringServer s;
  EXPECT_FALSE(ParseQuery(
                   "SELECT ?X WHERE { ?X a b OPTIONAL { ?X c ?Y OPTIONAL "
                   "{ ?Y e ?Z } } }",
                   &s)
                   .ok());
}

TEST_F(OptionalUnionTest, OrderByOverUnion) {
  auto exec = cluster_->OneShot(R"(
      SELECT ?X WHERE {
        { ?X email a@x } UNION { ?X email b@x }
      } ORDER BY DESC(?X) LIMIT 1)");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->result.rows.size(), 1u);
  EXPECT_EQ(Name(exec->result.rows[0][0]), "bob");
}

// OPTIONAL edge cases checked against the reference oracle row for row: the
// batched left join must produce the oracle's rows in the oracle's order
// (left row by left row, every match of a row in enumeration order), since
// none of these queries has an ORDER BY to impose one.
class OptionalOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.nodes = 2;
    config.batch_interval_ms = 100;
    cluster_ = std::make_unique<Cluster>(config);
    oracle_ = std::make_unique<testkit::ReferenceOracle>(cluster_->strings(),
                                                         100, 1);
    StringServer* s = cluster_->strings();
    auto triple = [&](const char* a, const char* p, const char* o) {
      return Triple{s->InternVertex(a), s->InternPredicate(p), s->InternVertex(o)};
    };
    // bob's email edge is duplicated (bag multiplicity 2); dave has no email;
    // only bob's address has a host.
    std::vector<Triple> base = {
        triple("alice", "fo", "bob"),  triple("alice", "fo", "carol"),
        triple("alice", "fo", "dave"), triple("bob", "email", "b@x"),
        triple("bob", "email", "b@x"), triple("carol", "email", "c@x"),
        triple("b@x", "host", "hx")};
    cluster_->LoadBase(base);
    oracle_->LoadBase(base);
  }

  using Rows = std::vector<std::vector<std::string>>;

  // Runs `text` on the cluster and on the oracle; the rows must match in
  // value and order. Returns the engine's rows as names ("" = unbound).
  Rows RunAgainstOracle(const std::string& text) {
    auto q = ParseQuery(text, cluster_->strings());
    if (!q.ok()) {
      ADD_FAILURE() << q.status().ToString();
      return {};
    }
    auto exec = cluster_->OneShotParsed(*q);
    auto want = oracle_->Evaluate(*q, cluster_->coordinator()->StableSn(),
                                  cluster_->coordinator()->StableVts(), 0);
    if (!exec.ok() || !want.ok()) {
      ADD_FAILURE() << "engine " << exec.status().ToString() << ", oracle "
                    << want.status().ToString();
      return {};
    }
    EXPECT_EQ(exec->result.rows, want->rows) << "engine and oracle rows differ";
    Rows names;
    for (const std::vector<ResultValue>& row : exec->result.rows) {
      names.emplace_back();
      for (const ResultValue& v : row) {
        names.back().push_back(v.vid == kUnboundBinding
                                   ? ""
                                   : *cluster_->strings()->VertexString(v.vid));
      }
    }
    return names;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<testkit::ReferenceOracle> oracle_;
};

TEST_F(OptionalOracleTest, DuplicatedEdgeMatchesTwice) {
  EXPECT_EQ(RunAgainstOracle(R"(
      SELECT ?F ?E WHERE {
        alice fo ?F
        OPTIONAL { ?F email ?E }
      })"),
            (Rows{{"bob", "b@x"}, {"bob", "b@x"}, {"carol", "c@x"}, {"dave", ""}}));
}

TEST_F(OptionalOracleTest, SecondGroupAnchoredOnUnboundVariable) {
  // The second group joins on ?E, which the first group left unbound for
  // dave: dave's row must survive with ?H unbound too.
  EXPECT_EQ(RunAgainstOracle(R"(
      SELECT ?F ?E ?H WHERE {
        alice fo ?F
        OPTIONAL { ?F email ?E }
        OPTIONAL { ?E host ?H }
      })"),
            (Rows{{"bob", "b@x", "hx"},
                  {"bob", "b@x", "hx"},
                  {"carol", "c@x", ""},
                  {"dave", "", ""}}));
}

TEST_F(OptionalOracleTest, AllConstantRequiredPart) {
  // The required part binds nothing: the left table is the unit table.
  EXPECT_EQ(RunAgainstOracle(R"(
      SELECT ?E WHERE {
        alice fo bob
        OPTIONAL { bob email ?E }
      })"),
            (Rows{{"b@x"}, {"b@x"}}));
  EXPECT_EQ(RunAgainstOracle(R"(
      SELECT ?E WHERE {
        alice fo dave
        OPTIONAL { dave email ?E }
      })"),
            (Rows{{""}}));
  EXPECT_EQ(RunAgainstOracle(R"(
      SELECT ?E WHERE {
        alice fo erin
        OPTIONAL { erin email ?E }
      })"),
            Rows{});
}

}  // namespace
}  // namespace wukongs
