#include "core/transport.h"

#include "common/error.h"

namespace jigsaw {
namespace core {

std::exception_ptr
responseError(const ExecutionResponse &response)
{
    // Reconstruct the scheduler-side error taxonomy from the
    // serialized (message, transient) pair: the retry machinery keys
    // on TransientError, everything else is terminal. The original
    // concrete type is gone — the price of a serializable envelope —
    // but only the transient/terminal split drives scheduling.
    panicIf(response.ok, "responseError: response carries no error");
    if (response.transientError)
        return std::make_exception_ptr(
            TransientError(response.errorMessage));
    return std::make_exception_ptr(
        std::runtime_error(response.errorMessage));
}

void
validateRequest(const ExecutionRequest &request)
{
    panicIf(request.device == nullptr,
            "transport: request without a device model");
    panicIf(request.jobs == nullptr || request.schedule == nullptr ||
                request.plan == nullptr || request.session == nullptr,
            "transport: request without its job's artifacts");
}

} // namespace core
} // namespace jigsaw
