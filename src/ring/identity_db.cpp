#include "ring/identity_db.hpp"

#include <algorithm>

#include "anf/ops.hpp"

namespace pd::ring::PD_WIDTH_NS {

void IdentityDb::add(const anf::Anf& e) {
    if (e.isZero()) return;
    if (std::find(ids_.begin(), ids_.end(), e) != ids_.end()) return;
    ids_.push_back(e);
}

NullSpaceRing IdentityDb::nullspaceOf(anf::Var v) const {
    NullSpaceRing r;
    for (const auto& id : ids_) {
        bool allContainV = !id.isZero();
        for (const auto& t : id.terms())
            if (!t.contains(v)) {
                allContainV = false;
                break;
            }
        if (!allContainV) continue;
        // id = v * E with E = id / v (erase v from every monomial), which
        // is the derivative because every monomial contains v.
        r.addGenerator(anf::derivative(id, v));
    }
    return r;
}

anf::VarSet IdentityDb::dividingVars() const {
    anf::VarSet out;
    for (const auto& id : ids_) {
        const auto terms = id.terms();
        anf::VarSet common = terms.front();
        for (const auto& t : terms) common = common.restrictedTo(t);
        out = out.unionWith(common);
    }
    return out;
}

NullSpaceRing IdentityDb::nullspaceOfMonomial(const anf::Monomial& m,
                                              bool withComplements) const {
    NullSpaceRing r;
    if (ids_.empty() && !withComplements) return r;  // nothing can seed it
    m.forEachVar([&](anf::Var v) {
        r = NullSpaceRing::merged(r, nullspaceOf(v));
        if (withComplements) r.addGenerator(~anf::Anf::var(v));
    });
    return r;
}

void IdentityDb::dropTouching(const anf::VarSet& consumed) {
    std::erase_if(ids_, [&](const anf::Anf& id) {
        return id.support().intersects(consumed);
    });
}

}  // namespace pd::ring::PD_WIDTH_NS
