/**
 * @file
 * Code generation (paper §4, step 3).
 *
 * RAP translates the searched plan into executable code: optimised
 * CUDA kernels plus a PyTorch-frontend script that launches them at
 * the right points of the TorchRec training loop. This module emits
 * the equivalent artefacts for the simulated system — a human-readable
 * schedule table and a pseudo-Python frontend that documents exactly
 * which fused kernel co-runs with which training layer.
 */

#ifndef RAP_CORE_CODEGEN_HPP
#define RAP_CORE_CODEGEN_HPP

#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/corun_scheduler.hpp"

namespace rap::core {

/**
 * Renders searched plans as schedule tables and frontend scripts.
 */
class ScheduleCodegen
{
  public:
    /**
     * @return An ASCII table describing @p schedule against
     *         @p profile: one row per scheduled kernel with its fused
     *         width, predicted latency and host training layer.
     */
    static std::string renderScheduleTable(
        const CoRunSchedule &schedule, const CapacityProfile &profile);

    /**
     * @return A pseudo-Python (PyTorch-style) frontend implementing
     *         the co-running schedule for one GPU.
     */
    static std::string renderPythonFrontend(
        const CoRunSchedule &schedule, const CapacityProfile &profile,
        int gpu);
};

} // namespace rap::core

#endif // RAP_CORE_CODEGEN_HPP
