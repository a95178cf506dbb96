/**
 * @file
 * Figure 6: the paper's worked Bayesian-update example, step by step.
 *
 * Reproduces the published numbers exactly: the update coefficients
 * for marginal (Q1,Q0), the raw posterior column, and the boost of
 * the correct answer 111 after reconstruction.
 */
#include <iostream>

#include "common/table.h"
#include "core/bayesian.h"

int
main()
{
    using namespace jigsaw;

    // Global PMF over (Q2,Q1,Q0) and the CPM marginal over (Q1,Q0),
    // exactly as printed in the paper's Figure 6.
    Pmf global(3);
    global.set(0b000, 0.10);
    global.set(0b001, 0.10);
    global.set(0b010, 0.15);
    global.set(0b011, 0.15);
    global.set(0b100, 0.10);
    global.set(0b101, 0.05);
    global.set(0b110, 0.15);
    global.set(0b111, 0.20);

    Pmf local(2);
    local.set(0b00, 0.1);
    local.set(0b01, 0.1);
    local.set(0b10, 0.2);
    local.set(0b11, 0.6);
    const core::Marginal marginal{local, {0, 1}};

    std::cout << "=== Figure 6: Bayesian update walkthrough (3-qubit "
                 "program, marginal over Q1,Q0) ===\n\n";

    // Steps 1-2: update coefficients = prior mass normalized within
    // each subset-value bucket.
    const Pmf bucket = global.marginal(marginal.qubits);

    ConsoleTable steps({"outcome", "prior P", "coeff C",
                        "raw posterior", "paper Ppost"});
    const char *paper_ppost[8] = {"0.05", "0.07", "0.13", "0.64",
                                  "0.05", "0.04", "0.13", "0.86"};
    for (BasisState s = 0; s < 8; ++s) {
        const BasisState key = extractBits(s, marginal.qubits);
        const double coeff = global.prob(s) / bucket.prob(key);
        const double pry = local.prob(key);
        const double raw = coeff * pry / (1.0 - pry);
        steps.addRow({toBitstring(s, 3),
                      ConsoleTable::num(global.prob(s), 2),
                      ConsoleTable::num(coeff, 2),
                      ConsoleTable::num(raw, 4), paper_ppost[s]});
    }
    steps.print(std::cout);

    // Steps 4-6: full reconstruction with this marginal.
    const Pmf out = core::bayesianReconstruct(global, {marginal});
    std::cout << "\nP(111): prior " << ConsoleTable::num(
                     global.prob(0b111), 3)
              << " -> reconstructed "
              << ConsoleTable::num(out.prob(0b111), 3) << " ("
              << ConsoleTable::num(out.prob(0b111) / global.prob(0b111),
                                   2)
              << "x; paper reports 2.2x with additional marginals)\n"
              << "mode of the output PMF: " << toBitstring(out.mode(), 3)
              << " (the correct answer)\n";
    return 0;
}
