#include "compiler/cpm_batch.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "compiler/sabre.h"
#include "sim/eps.h"

namespace jigsaw {
namespace compiler {

CpmRecompiler::CpmRecompiler(const circuit::QuantumCircuit &logical,
                             device::DeviceModel dev,
                             TranspileOptions options)
    : logicalPrefix_(logical.withoutMeasurements()), dev_(std::move(dev)),
      options_(std::move(options)),
      starts_(rankedStartQubits(dev_, options_.noiseAware)),
      placement_(logicalPrefix_, dev_)
{
    const int n_candidates =
        std::min<int>(options_.numCandidates,
                      static_cast<int>(starts_.size()));
    fatalIf(n_candidates < 1,
            "CpmRecompiler: need at least one candidate");
    starts_.resize(static_cast<std::size_t>(n_candidates));

    // Distance-only placement never reads the measured set.
    const std::vector<bool> unmeasured(
        static_cast<std::size_t>(logicalPrefix_.nQubits()), false);
    tightByStart_.reserve(starts_.size());
    for (int start : starts_)
        tightByStart_.push_back(placement_.place(start, false, unmeasured));
}

const CpmRecompiler::RoutedPrefix &
CpmRecompiler::routedFor(const Layout &initial)
{
    const auto it = routedByLayout_.find(initial.logicalToPhysical());
    if (it != routedByLayout_.end()) {
        ++routingsReused_;
        return it->second;
    }
    ++routingsComputed_;
    RoutedCircuit routed = sabreRoute(logicalPrefix_, dev_.topology(),
                                      initial, options_.sabre);
    RoutedPrefix prefix{std::move(routed.physical), initial,
                        routed.finalLayout, routed.swapCount, 0.0};
    prefix.gateSuccess = sim::gateSuccessProbability(prefix.physical, dev_);
    return routedByLayout_
        .emplace(initial.logicalToPhysical(), std::move(prefix))
        .first->second;
}

CompiledCircuit
CpmRecompiler::recompile(const std::vector<int> &logical_qubits)
{
    fatalIf(logical_qubits.empty(),
            "CpmRecompiler: empty measurement subset");
    std::vector<bool> measured(
        static_cast<std::size_t>(logicalPrefix_.nQubits()), false);
    for (int q : logical_qubits) {
        fatalIf(q < 0 || q >= logicalPrefix_.nQubits(),
                "CpmRecompiler: measured qubit out of range");
        measured[static_cast<std::size_t>(q)] = true;
    }

    // Candidate generation mirrors transpile()'s compileCandidates:
    // both greedy placement families per start, the distance-only one
    // added only when it differs from the noise-aware one. Candidate
    // order is preserved so tie-breaking matches transpile() exactly.
    // Each candidate is scored from its memoized routing: the gate
    // prefix is measurement-independent, so only the readout term —
    // this subset's qubits under the final layout, in clbit order,
    // exactly the measurements sabreRoute would append — is per-subset.
    std::vector<const RoutedPrefix *> prefixes;
    std::vector<double> readout;
    std::vector<CandidateScore> scores;
    prefixes.reserve(2 * starts_.size());
    readout.reserve(2 * starts_.size());
    scores.reserve(2 * starts_.size());
    std::vector<int> physical(logical_qubits.size());
    auto score = [&](const Layout &initial) {
        const RoutedPrefix &prefix = routedFor(initial);
        for (std::size_t j = 0; j < logical_qubits.size(); ++j)
            physical[j] = prefix.finalLayout.physicalOf(logical_qubits[j]);
        const double measurement_success =
            sim::measurementSuccessProbability(physical, dev_);
        prefixes.push_back(&prefix);
        readout.push_back(measurement_success);
        scores.push_back(
            {prefix.swapCount, prefix.gateSuccess * measurement_success});
    };
    for (std::size_t i = 0; i < starts_.size(); ++i) {
        const Layout &tight = tightByStart_[i];
        if (!options_.noiseAware) {
            score(tight);
            continue;
        }
        const Layout aware = placement_.place(starts_[i], true, measured);
        score(aware);
        if (tight.logicalToPhysical() != aware.logicalToPhysical())
            score(tight);
    }

    // Materialize only the winner: the routed prefix with this
    // subset's measurements appended against the final layout.
    const std::size_t best = selectCandidate(scores, options_);
    const RoutedPrefix &prefix = *prefixes[best];
    circuit::QuantumCircuit physical_circuit(
        dev_.nQubits(), static_cast<int>(logical_qubits.size()));
    for (const circuit::Gate &g : prefix.physical.gates())
        physical_circuit.append(g);
    for (std::size_t j = 0; j < logical_qubits.size(); ++j) {
        physical_circuit.measure(
            prefix.finalLayout.physicalOf(logical_qubits[j]),
            static_cast<int>(j));
    }
    return CompiledCircuit{std::move(physical_circuit),
                           prefix.initialLayout,
                           prefix.finalLayout,
                           prefix.swapCount,
                           scores[best].eps,
                           prefix.gateSuccess,
                           readout[best]};
}

} // namespace compiler
} // namespace jigsaw
