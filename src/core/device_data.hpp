// Device-resident images of the query structures and database blocks, in
// 128-byte-aligned buffers (the cudaMalloc stand-in), with byte counts for
// the PCIe transfer model.
#pragma once

#include <cstdint>
#include <span>

#include "bio/database.hpp"
#include "bio/pssm.hpp"
#include "blast/wordlookup.hpp"
#include "simt/device_buffer.hpp"

namespace repro::core {

/// Query-derived structures uploaded once per search (paper "Other" phase):
/// DFA word table (offsets + positions + presence bitmap), PSSM, BLOSUM62,
/// and the query residues.
struct QueryDevice {
  simt::DeviceVector<std::uint32_t> word_offsets;
  simt::DeviceVector<std::uint32_t> word_positions;
  simt::DeviceVector<std::uint32_t> presence_bitmap;  ///< 1 bit per word
  simt::DeviceVector<std::int16_t> pssm;      ///< 32 scores per column
  simt::DeviceVector<std::int16_t> blosum;    ///< padded 32x32
  simt::DeviceVector<std::uint8_t> query;
  std::uint32_t query_length = 0;

  QueryDevice(std::span<const std::uint8_t> query_residues,
              const blast::WordLookup& lookup, const bio::Pssm& host_pssm);

  [[nodiscard]] std::uint64_t h2d_bytes() const;

  /// Bytes of the shared-memory-resident "DFA state" structure (the
  /// presence bitmap) — the fixed small part of the paper's hierarchical
  /// buffering (§3.5, Fig. 10).
  [[nodiscard]] std::size_t presence_bytes() const {
    return presence_bitmap.size() * sizeof(std::uint32_t);
  }
};

/// One database block staged to the device (paper Fig. 12 pipeline).
struct BlockDevice {
  simt::DeviceVector<std::uint8_t> residues;
  simt::DeviceVector<std::uint32_t> offsets;  ///< num_seqs + 1, block-local
  std::uint32_t num_seqs = 0;
  std::uint32_t first_seq = 0;  ///< global index of the block's first seq
  std::uint32_t max_seq_len = 0;

  BlockDevice(const bio::SequenceDatabase& db, std::size_t begin,
              std::size_t end);

  [[nodiscard]] std::uint64_t h2d_bytes() const {
    return residues.size() * sizeof(std::uint8_t) +
           offsets.size() * sizeof(std::uint32_t);
  }
};

}  // namespace repro::core
