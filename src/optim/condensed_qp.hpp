// QP backend label. The MPC's QP subproblems have one engine, the sparse
// interior point of optim/qp; this header only keeps the names the
// repository benchmark (perfbench/) prints in its environment line.
#pragma once

namespace evc::opt {

enum class QpBackend { kSparse };

inline const char* to_string(QpBackend) { return "sparse"; }

/// The only backend there is; `fallback` is accepted for perfbench's call
/// and no environment variable is read.
inline QpBackend qp_backend_from_env(QpBackend fallback) { return fallback; }

}  // namespace evc::opt
