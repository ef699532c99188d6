#include "uqsim/runner/failure.h"

#include <stdexcept>

#include "uqsim/core/engine/audit.h"
#include "uqsim/core/engine/run_control.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/json/json_value.h"

namespace uqsim {
namespace runner {

const char*
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None: return "ok";
      case FailureKind::ConfigError: return "config_error";
      case FailureKind::InvariantViolation: return "invariant";
      case FailureKind::Timeout: return "timeout";
      case FailureKind::InternalError: return "internal";
    }
    return "?";
}

FailureKind
failureKindFromName(const std::string& name)
{
    if (name == "ok")
        return FailureKind::None;
    if (name == "config_error")
        return FailureKind::ConfigError;
    if (name == "invariant")
        return FailureKind::InvariantViolation;
    if (name == "timeout")
        return FailureKind::Timeout;
    if (name == "internal")
        return FailureKind::InternalError;
    throw std::invalid_argument("unknown failure kind: " + name);
}

namespace {

FailureKind
classifyThrown(const std::exception_ptr& error, std::string* message)
{
    try {
        std::rethrow_exception(error);
    } catch (const EngineInvariantError& e) {
        // Before logic_error: EngineInvariantError derives from it.
        *message = e.what();
        return FailureKind::InvariantViolation;
    } catch (const SimulationAbortError& e) {
        *message = e.what();
        return FailureKind::Timeout;
    } catch (const json::JsonError& e) {
        *message = e.what();
        return FailureKind::ConfigError;
    } catch (const std::invalid_argument& e) {
        *message = e.what();
        return FailureKind::ConfigError;
    } catch (const std::logic_error& e) {
        // Build-protocol violations (finalize() misuse, null
        // factories) are configuration mistakes, not engine bugs.
        *message = e.what();
        return FailureKind::ConfigError;
    } catch (const std::exception& e) {
        *message = e.what();
        return FailureKind::InternalError;
    } catch (...) {
        *message = "unknown exception";
        return FailureKind::InternalError;
    }
}

}  // namespace

FailureKind
classifyException(const std::exception_ptr& error,
                  std::string* message, const Simulator* engine)
{
    const FailureKind kind = classifyThrown(error, message);
    if (engine == nullptr)
        return kind;
    const audit::AuditReport report = engine->auditEngine();
    if (report.clean())
        return kind;
    *message += "; post-failure engine audit: " + report.describe();
    return FailureKind::InvariantViolation;
}

}  // namespace runner
}  // namespace uqsim
