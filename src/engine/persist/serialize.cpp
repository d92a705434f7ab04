#include "engine/persist/serialize.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace pd::engine::persist {
namespace {

constexpr std::uint8_t kMaxGateType =
    static_cast<std::uint8_t>(netlist::GateType::kMux);
constexpr std::uint8_t kMaxVerifyStatus =
    static_cast<std::uint8_t>(VerifyStatus::kFailed);

}  // namespace

void serializeNetlist(const netlist::Netlist& nl, ByteWriter& w) {
    w.u64(nl.numNets());
    for (netlist::NetId id = 0; id < nl.numNets(); ++id) {
        const auto& g = nl.gate(id);
        w.u8(static_cast<std::uint8_t>(g.type));
        for (const netlist::NetId in : g.in) w.u32(in);
    }
    w.u64(nl.inputs().size());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        w.u32(nl.inputs()[i]);
        w.str(nl.inputName(i));
    }
    w.u64(nl.outputs().size());
    for (const auto& out : nl.outputs()) {
        w.str(out.name);
        w.u32(out.net);
    }
}

netlist::Netlist deserializeNetlist(ByteReader& r) {
    const std::uint64_t gateCount = r.u64();
    // Decode gate records first; inputs need their names (stored in the
    // separate inputs section) before the DAG can be replayed.
    struct RawGate {
        netlist::GateType type;
        std::array<netlist::NetId, 3> in;
    };
    std::vector<RawGate> raw;
    // A hostile count can't force a huge allocation: each gate record is
    // 13 bytes, so cap the reservation by what the buffer can hold.
    raw.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(gateCount, r.remaining() / 13)));
    for (std::uint64_t id = 0; id < gateCount; ++id) {
        const std::uint8_t t = r.u8();
        if (t > kMaxGateType)
            fail("persist", "bad gate type " + std::to_string(t) +
                                " at net " + std::to_string(id));
        RawGate g{static_cast<netlist::GateType>(t), {}};
        for (auto& in : g.in) in = r.u32();
        const int n = netlist::fanin(g.type);
        for (int i = 0; i < 3; ++i) {
            const netlist::NetId in = g.in[static_cast<std::size_t>(i)];
            if (i < n) {
                if (in >= id)
                    fail("persist",
                         "gate operand " + std::to_string(in) +
                             " not topologically before net " +
                             std::to_string(id));
            } else if (in != netlist::kNoNet) {
                fail("persist", "unused operand slot holds net " +
                                    std::to_string(in));
            }
        }
        raw.push_back(g);
    }

    const std::uint64_t inputCount = r.u64();
    std::vector<std::pair<netlist::NetId, std::string>> inputs;
    inputs.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(inputCount, r.remaining() / 8)));
    for (std::uint64_t i = 0; i < inputCount; ++i) {
        const netlist::NetId id = r.u32();
        inputs.emplace_back(id, std::string(r.str()));
    }

    // Replay through the public API so the rebuilt netlist satisfies the
    // class invariants by construction.
    netlist::Netlist nl;
    std::size_t nextInput = 0;
    for (std::uint64_t id = 0; id < gateCount; ++id) {
        if (raw[id].type == netlist::GateType::kInput) {
            if (nextInput >= inputs.size() ||
                inputs[nextInput].first != id)
                fail("persist", "input list does not match input gates");
            nl.addInput(inputs[nextInput].second);
            ++nextInput;
        } else {
            nl.addGate(raw[id].type, raw[id].in[0], raw[id].in[1],
                       raw[id].in[2]);
        }
    }
    if (nextInput != inputs.size())
        fail("persist", "input list longer than input gates");

    const std::uint64_t outputCount = r.u64();
    for (std::uint64_t i = 0; i < outputCount; ++i) {
        std::string name(r.str());
        const netlist::NetId net = r.u32();
        if (net >= gateCount)
            fail("persist", "output '" + name + "' references net " +
                                std::to_string(net) + " of " +
                                std::to_string(gateCount));
        nl.markOutput(std::move(name), net);
    }
    return nl;
}

void serializeJobResult(const JobResult& r, std::string& out) {
    ByteWriter w(out);
    w.u8(r.ok ? 1 : 0);
    w.str(r.error);
    w.u64(r.blocks);
    w.u64(r.iterations);
    w.u64(r.leaders);
    w.u8(r.converged ? 1 : 0);
    w.u8(r.budgetExhausted ? 1 : 0);
    w.f64(r.qor.area);
    w.f64(r.qor.delay);
    w.u64(r.qor.gates);
    w.u64(r.levels);
    w.u64(r.interconnect);
    w.u8(static_cast<std::uint8_t>(r.verification));
    w.u64(r.vectorsTested);
    w.u8(r.exhaustive ? 1 : 0);
    w.u8(r.satVerify.ran ? 1 : 0);
    w.u64(r.satVerify.conflicts);
    w.u64(r.satVerify.propagations);
    w.u64(r.satVerify.restarts);
    w.u64(r.satVerify.learned);
    // winner is -1..N; bias by one so it stores as an unsigned count.
    w.u64(static_cast<std::uint64_t>(r.satVerify.winner + 1));
    w.u8(r.satVerify.budgetExhausted ? 1 : 0);
    serializeNetlist(r.mapped, w);
}

std::shared_ptr<JobResult> deserializeJobResult(std::string_view payload) {
    ByteReader r(payload);
    auto out = std::make_shared<JobResult>();
    out->ok = r.u8() != 0;
    out->error = std::string(r.str());
    out->blocks = r.u64();
    out->iterations = r.u64();
    out->leaders = r.u64();
    out->converged = r.u8() != 0;
    out->budgetExhausted = r.u8() != 0;
    out->qor.area = r.f64();
    out->qor.delay = r.f64();
    out->qor.gates = r.u64();
    out->levels = r.u64();
    out->interconnect = r.u64();
    const std::uint8_t v = r.u8();
    if (v > kMaxVerifyStatus)
        fail("persist", "bad verification status " + std::to_string(v));
    out->verification = static_cast<VerifyStatus>(v);
    out->vectorsTested = r.u64();
    out->exhaustive = r.u8() != 0;
    out->satVerify.ran = r.u8() != 0;
    out->satVerify.conflicts = r.u64();
    out->satVerify.propagations = r.u64();
    out->satVerify.restarts = r.u64();
    out->satVerify.learned = r.u64();
    // Stored biased by one, so a valid field is at most INT_MAX + 1;
    // anything larger is a malformed record, rejected before the
    // subtraction could overflow.
    const std::uint64_t winner = r.u64();
    if (winner > std::uint64_t{INT_MAX} + 1)
        fail("persist", "bad SAT winner " + std::to_string(winner));
    out->satVerify.winner =
        static_cast<int>(static_cast<std::int64_t>(winner) - 1);
    out->satVerify.budgetExhausted = r.u8() != 0;
    out->mapped = deserializeNetlist(r);
    if (!r.done())
        fail("persist", std::to_string(r.remaining()) +
                            " trailing bytes after result payload");
    out->cacheSource = CacheSource::kDisk;
    return out;
}

}  // namespace pd::engine::persist
