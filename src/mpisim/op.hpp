#ifndef MPISIM_OP_HPP
#define MPISIM_OP_HPP

/// \file op.hpp
/// Predefined element types and reduction operators.
///
/// These mirror the MPI basic datatypes and reduction ops used by the
/// ARMCI-MPI port: accumulate and allreduce are defined element-wise over a
/// BasicType, and Op::replace gives MPI_REPLACE semantics (put-like
/// accumulate).

#include <cstddef>
#include <cstdint>

namespace mpisim {

/// Element types understood by reductions and accumulate.
enum class BasicType : std::uint8_t {
  byte_,
  int32,
  int64,
  uint64,
  float32,
  float64,
};

/// Size in bytes of one element of \p t.
std::size_t basic_type_size(BasicType t) noexcept;

/// Printable name ("double", "int", ...).
const char* basic_type_name(BasicType t) noexcept;

/// Reduction / accumulate operators. Keep bor last: kOpCount is derived
/// from it and sizes per-operator arrays indexed by Op.
enum class Op : std::uint8_t {
  sum,
  prod,
  min,
  max,
  replace,  ///< MPI_REPLACE: target <- origin
  no_op,    ///< MPI_NO_OP: target unchanged (fetch-only accumulates)
  land,     ///< logical AND (integer types)
  lor,      ///< logical OR (integer types)
  band,     ///< bitwise AND (integer types)
  bor,      ///< bitwise OR (integer types) -- must stay the last value
};

/// Number of Op values (they are dense from 0), for per-operator arrays.
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::bor) + 1;

/// Printable name of an operator.
const char* op_name(Op op) noexcept;

/// MPI-3 same_op_no_op: two accumulate-class operations (accumulate,
/// get_accumulate, fetch_and_op) may touch the same bytes concurrently when
/// their operators are equal or either one is no_op. Symmetric.
constexpr bool acc_ops_compatible(Op a, Op b) noexcept {
  return a == b || a == Op::no_op || b == Op::no_op;
}

/// Apply \p op element-wise: dst[i] = dst[i] OP src[i] for count elements
/// of type \p t. Throws Errc::invalid_argument for undefined combinations
/// (e.g. bitwise ops on floating types).
void apply_op(Op op, BasicType t, void* dst, const void* src, std::size_t count);

/// C++ type -> BasicType mapping for templated call sites.
template <typename T>
constexpr BasicType basic_type_of();

template <> constexpr BasicType basic_type_of<std::uint8_t>() { return BasicType::byte_; }
template <> constexpr BasicType basic_type_of<std::int32_t>() { return BasicType::int32; }
template <> constexpr BasicType basic_type_of<std::int64_t>() { return BasicType::int64; }
template <> constexpr BasicType basic_type_of<std::uint64_t>() { return BasicType::uint64; }
template <> constexpr BasicType basic_type_of<float>() { return BasicType::float32; }
template <> constexpr BasicType basic_type_of<double>() { return BasicType::float64; }

}  // namespace mpisim

#endif  // MPISIM_OP_HPP
