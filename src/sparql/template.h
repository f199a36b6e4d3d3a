// Template signatures for multi-query optimization of continuous queries
// (DESIGN.md §5.12).
//
// At the north-star scale, millions of registered continuous queries are
// instantiations of a few dozen *templates*: the same pattern shape with one
// per-user constant swapped in. CanonicalizeTemplate reduces a parsed Query
// to that shape — variables alpha-renamed into first-occurrence order, the
// single constant replaced by a designated *hole* — so the cluster can bucket
// registrations whose signatures collide into one template group, evaluate
// the shared probe query once per trigger, and fan the bindings out per hole
// value. Grouping is syntactic modulo renaming (not full BGP isomorphism):
// two queries share a group iff their pattern lists, written in the same
// order, canonicalize identically.

#ifndef SRC_SPARQL_TEMPLATE_H_
#define SRC_SPARQL_TEMPLATE_H_

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/sparql/ast.h"

namespace wukongs {

struct TemplateSignature {
  // Grouping eligibility. Ineligible queries evaluate independently, exactly
  // as before this optimization existed; `reason` says why (tests/debug).
  bool eligible = false;
  std::string reason;

  // Canonical shape key: windows + alpha-renamed patterns/OPTIONALs/FILTERs
  // with the hole marked positionally. Everything per-member — the hole's
  // constant, the query name, SELECT/DISTINCT/ORDER BY/GROUP BY — is elided,
  // because projection and the solution modifiers re-run per member on its
  // fan-out partition. Two registrations group iff their keys are equal.
  std::string key;

  // The member's user constant (the hole's value) and the member-var ->
  // canonical-slot renaming (index = slot into Query::var_names).
  VertexId hole_constant = 0;
  std::vector<int> var_to_canon;
  int canon_vars = 0;  // Distinct variables; canonical slots are [0, n).

  // The shared probe query: the member's shape in canonical variable space,
  // the hole generalized to variable slot `hole_var` (== canon_vars), all
  // variables plus the hole selected plain, solution modifiers stripped.
  // Evaluating it once yields every member's pre-projection bindings; the
  // hole column hash-partitions them back to members.
  Query probe;
  int hole_var = -1;
};

// Canonicalizes `q` into its template signature. Eligibility requires a
// continuous query with windows, no UNION, no LIMIT, no absolute window, no
// window-scoped pattern inside an OPTIONAL (a rule the retired per-slice
// delta cache needed; kept so the set of grouped queries does not change),
// and exactly one constant subject/object term, located in the required
// patterns — zero constants, several constants, or a constant only inside
// an OPTIONAL all fall back to independent evaluation.
TemplateSignature CanonicalizeTemplate(const Query& q);

}  // namespace wukongs

#endif  // SRC_SPARQL_TEMPLATE_H_
