#ifndef FEDSEARCH_CORE_EPOCH_H_
#define FEDSEARCH_CORE_EPOCH_H_

#include <cstdint>

namespace fedsearch::core {

// Version number of a database's content summary under live refresh.
//
// A statically-built Metasearcher serves epoch 0 forever. Under a
// LiveMetasearcher (core/live_metasearcher.h), every published snapshot
// carries a global epoch plus a per-database summary epoch: the epoch at
// which that database's sample was last re-probed — strictly monotone,
// never reused, so "newer epoch" always means "newer summary". A
// PosteriorCache shard records the epoch it was pinned at, and a caller
// scoring with another epoch's summary fails its FEDSEARCH_DCHECK.
using SummaryEpoch = uint64_t;

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_EPOCH_H_
