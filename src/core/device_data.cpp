#include "core/device_data.hpp"

#include <algorithm>

#include "simt/simtcheck.hpp"

namespace repro::core {

QueryDevice::QueryDevice(std::span<const std::uint8_t> query_residues,
                         const blast::WordLookup& lookup,
                         const bio::Pssm& host_pssm)
    : query_length(static_cast<std::uint32_t>(query_residues.size())) {
  simt::DeviceAllocSite site("core.query_device");
  word_offsets.assign(lookup.offset_buffer().begin(),
                      lookup.offset_buffer().end());
  word_positions.assign(lookup.position_buffer().begin(),
                        lookup.position_buffer().end());

  presence_bitmap.assign((lookup.num_words() + 31) / 32, 0);
  for (std::uint32_t w = 0; w < lookup.num_words(); ++w)
    if (!lookup.positions(w).empty())
      presence_bitmap[w / 32] |= 1u << (w % 32);

  pssm.assign(host_pssm.device_buffer().begin(),
              host_pssm.device_buffer().end());
  const auto& padded = bio::Blosum62::instance().padded();
  blosum.assign(padded.begin(), padded.end());
  query.assign(query_residues.begin(), query_residues.end());
}

std::uint64_t QueryDevice::h2d_bytes() const {
  return word_offsets.size() * sizeof(std::uint32_t) +
         word_positions.size() * sizeof(std::uint32_t) +
         presence_bitmap.size() * sizeof(std::uint32_t) +
         pssm.size() * sizeof(std::int16_t) +
         blosum.size() * sizeof(std::int16_t) + query.size();
}

BlockDevice::BlockDevice(const bio::SequenceDatabase& db, std::size_t begin,
                         std::size_t end)
    : num_seqs(static_cast<std::uint32_t>(end - begin)),
      first_seq(static_cast<std::uint32_t>(begin)) {
  const std::uint64_t base = db.offsets()[begin];
  const std::uint64_t stop = db.offsets()[end];
  residues.assign(db.buffer().begin() + static_cast<std::ptrdiff_t>(base),
                  db.buffer().begin() + static_cast<std::ptrdiff_t>(stop));
  offsets.resize(num_seqs + 1);
  for (std::size_t i = begin; i <= end; ++i)
    offsets[i - begin] = static_cast<std::uint32_t>(db.offsets()[i] - base);
  // The host-side fill above models the H2D staging copy; tell initcheck
  // the whole buffer is defined (element writes through operator[] are not
  // instrumented, only allocator-level fills are).
  simt::mark_device_initialized(offsets.data(),
                                offsets.size() * sizeof(std::uint32_t));
  for (std::size_t i = begin; i < end; ++i)
    max_seq_len =
        std::max(max_seq_len, static_cast<std::uint32_t>(db.length(i)));
}

}  // namespace repro::core
