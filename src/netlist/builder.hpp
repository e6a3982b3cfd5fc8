// Structural building blocks over Netlist: buses, comparators, adders,
// priority logic, barrel shifters — the vocabulary the P5 circuit generators
// (src/netlist/circuits) are written in.
#pragma once

#include <functional>
#include <vector>

#include "netlist/netlist.hpp"

namespace p5::netlist {

/// A multi-bit signal, LSB first.
using Bus = std::vector<NodeId>;

class Builder {
 public:
  explicit Builder(Netlist& nl) : nl_(nl) {}

  [[nodiscard]] Netlist& netlist() { return nl_; }

  // ---- sources ----
  [[nodiscard]] Bus input_bus(const std::string& prefix, std::size_t bits);
  [[nodiscard]] Bus constant_bus(u64 value, std::size_t bits);
  [[nodiscard]] Bus dff_bus(std::size_t bits);  ///< D inputs wired later

  // ---- wiring ----
  void wire_dff_bus(const Bus& dffs, const Bus& d);
  void output_bus(const Bus& bus, const std::string& prefix);

  // ---- balanced trees ----
  [[nodiscard]] NodeId reduce_and(const Bus& bits);
  [[nodiscard]] NodeId reduce_or(const Bus& bits);
  [[nodiscard]] NodeId reduce_xor(const Bus& bits);

  // ---- bitwise ----
  [[nodiscard]] Bus mux_bus(NodeId sel, const Bus& when0, const Bus& when1);
  /// N-way one-hot mux: exactly one select should be high.
  [[nodiscard]] Bus onehot_mux(const std::vector<NodeId>& selects,
                               const std::vector<Bus>& choices);

  // ---- truth-table synthesis (two-level SOP) ----
  /// Arbitrary single-output function of a small bus (<= 8 inputs), built as
  /// a sum-of-products — the two-level form any function of <= K inputs
  /// collapses into one K-LUT under mapping. `fn` receives the input value.
  [[nodiscard]] NodeId table_fn(const Bus& in, const std::function<bool(u64)>& fn);
  /// Multi-output variant: bit b of the result is table_fn of (fn(v)>>b)&1.
  [[nodiscard]] Bus table_bus(const Bus& in, const std::function<u64(u64)>& fn,
                              std::size_t out_bits);

  // ---- comparison / arithmetic ----
  /// bus == constant (combinational equality comparator).
  [[nodiscard]] NodeId eq_const(const Bus& bus, u64 value);
  /// a == b.
  [[nodiscard]] NodeId eq_bus(const Bus& a, const Bus& b);
  /// Ripple-carry a + b (+ carry-in), result width = max + 1 unless trimmed.
  [[nodiscard]] Bus add(const Bus& a, const Bus& b, NodeId carry_in = kInvalidNode);
  /// Increment by a 1-bit amount (bus + bit).
  [[nodiscard]] Bus add_bit(const Bus& a, NodeId bit);
  /// a >= constant (unsigned).
  [[nodiscard]] NodeId ge_const(const Bus& bus, u64 value);
  /// Population count of the given bits as a small bus.
  [[nodiscard]] Bus popcount(const Bus& bits);

  // ---- selection networks ----
  /// Right-rotate `lanes` (a vector of equal-width buses) by `amount`
  /// (a log2(lanes)-bit bus): the byte-sorter's routing crossbar.
  [[nodiscard]] std::vector<Bus> rotate_lanes(const std::vector<Bus>& lanes, const Bus& amount);

  /// Priority encoder: index of the lowest set bit (valid = any set).
  struct Priority {
    Bus index;
    NodeId valid;
  };
  [[nodiscard]] Priority priority_encode(const Bus& bits);

 private:
  Netlist& nl_;
};

}  // namespace p5::netlist
