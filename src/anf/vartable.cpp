#include "anf/vartable.hpp"

namespace pd::anf {

Var VarTable::addImpl(VarInfo info) {
    if (byName_.contains(info.name))
        fail("VarTable", "duplicate variable name: " + info.name);
    const Var v = static_cast<Var>(info_.size());
    byName_.emplace(info.name, v);
    info_.push_back(std::move(info));
    return v;
}

Var VarTable::addInput(std::string name, int integerId, int bitPos) {
    VarInfo vi;
    vi.name = std::move(name);
    vi.kind = VarKind::kInput;
    vi.integerId = integerId;
    vi.bitPos = bitPos;
    if (integerId >= numIntegers_) numIntegers_ = integerId + 1;
    return addImpl(std::move(vi));
}

Var VarTable::addTag(std::string name) {
    VarInfo vi;
    vi.name = std::move(name);
    vi.kind = VarKind::kTag;
    return addImpl(std::move(vi));
}

Var VarTable::addDerived(std::string name, int level) {
    VarInfo vi;
    vi.name = std::move(name);
    vi.kind = VarKind::kDerived;
    vi.level = level;
    return addImpl(std::move(vi));
}

void VarTable::truncate(std::size_t n) {
    PD_ASSERT(n <= info_.size());
    for (std::size_t v = n; v < info_.size(); ++v) {
        PD_ASSERT(info_[v].kind == VarKind::kDerived);
        byName_.erase(info_[v].name);
    }
    info_.resize(n);
}

std::optional<Var> VarTable::find(std::string_view name) const {
    const auto it = byName_.find(std::string(name));
    if (it == byName_.end()) return std::nullopt;
    return it->second;
}

Var VarTable::findOrAddInput(std::string_view name) {
    if (const auto v = find(name)) return *v;
    return addInput(std::string(name), -1, -1);
}

std::vector<Var> VarTable::varsOfKind(VarKind kind) const {
    std::vector<Var> out;
    for (Var v = 0; v < info_.size(); ++v)
        if (info_[v].kind == kind) out.push_back(v);
    return out;
}

}  // namespace pd::anf
