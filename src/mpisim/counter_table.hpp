#ifndef MPISIM_COUNTER_TABLE_HPP
#define MPISIM_COUNTER_TABLE_HPP

/// \file counter_table.hpp
/// Expanders for the X-macro tables that define each counter or class list
/// once (WinStats, RmaViolation, HbRace, OpClass, armci::Stats). A table
/// macro takes one expander and applies it to every entry, X(name); the
/// expanders below turn the same list into an enum, a struct of counters,
/// a name array, an entry count, a sum, or a field-wise addition of a
/// same-typed struct named `o` (in an operator+=):
///
///   #define FRUITS(X) X(apple) X(pear)
///   enum class Fruit { FRUITS(MPISIM_TABLE_ENUMERATOR) };
///   inline constexpr int kFruitCount = 0 FRUITS(MPISIM_TABLE_COUNT);

#include <cstddef>
#include <cstdint>

#define MPISIM_TABLE_ENUMERATOR(name) name,
#define MPISIM_TABLE_U64_FIELD(name) std::uint64_t name = 0;
#define MPISIM_TABLE_COUNT(name) +1
#define MPISIM_TABLE_NAME(name) #name,
#define MPISIM_TABLE_SUM(name) +name
#define MPISIM_TABLE_ADD(name) name += o.name;

namespace mpisim {

/// Name of table entry \p e, given the array MPISIM_TABLE_NAME expands to;
/// "?" for a value outside the table.
template <class Enum, std::size_t N>
constexpr const char* table_name(const char* const (&names)[N],
                                 Enum e) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < N ? names[i] : "?";
}

}  // namespace mpisim

#endif  // MPISIM_COUNTER_TABLE_HPP
