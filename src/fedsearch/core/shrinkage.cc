#include "fedsearch/core/shrinkage.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/small_buffer.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

namespace {

constexpr summary::WordStats kAbsent{};

// The word's statistics in one chain summary: one map probe.
const summary::WordStats& Probe(const summary::ContentSummary& summary,
                                const std::string& word) {
  const auto it = summary.words().find(word);
  return it == summary.words().end() ? kAbsent : it->second;
}

// The part of a level's value the next level does not use, clamped at
// zero.
double Exclusive(double level, double next) {
  return std::max(0.0, level - next);
}

summary::WordStats Exclusive(const summary::WordStats& level,
                             const summary::WordStats& next) {
  return summary::WordStats{Exclusive(level.df, next.df),
                            Exclusive(level.ctf, next.ctf)};
}

// min(1, x / total), 0 when total <= 0: SummaryView::ProbDoc's and
// ProbToken's arithmetic.
double Probability(double x, double total) {
  return total <= 0.0 ? 0.0 : std::min(1.0, x / total);
}

// Chain level i's document count |C| and token count cw.
double LevelDocuments(const SummaryChain& chain, size_t i) {
  const double n = chain[i]->num_documents();
  return i + 1 < chain.size() ? Exclusive(n, chain[i + 1]->num_documents())
                              : n;
}

double LevelTokens(const SummaryChain& chain, size_t i) {
  const double tokens = chain[i]->total_tokens();
  return i + 1 < chain.size() ? Exclusive(tokens, chain[i + 1]->total_tokens())
                              : tokens;
}

// The EM fit's per-word walk: calls fn(i, stats) for every chain level i
// in order with the word's statistics at that level, probing each chain
// summary once.
template <typename Fn>
void ForEachLevel(const SummaryChain& chain, const std::string& word,
                  Fn&& fn) {
  const summary::WordStats* stats = &Probe(*chain[0], word);
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    const summary::WordStats& next = Probe(*chain[i + 1], word);
    fn(i, Exclusive(*stats, next));
    stats = &next;
  }
  fn(chain.size() - 1, *stats);
}

// Calls fn(word, stats) for the words of chain level i, in chain[i]'s map
// order, with their statistics at that level; an inner level skips words
// whose df and ctf are both zero there. One probe of chain[i + 1] per
// word.
template <typename Fn>
void ForEachLevelWord(const SummaryChain& chain, size_t i, Fn&& fn) {
  const bool inner = i + 1 < chain.size();
  // ORDER-INDEPENDENT: each word's level statistics are independent of the
  // visit order; visiting in map order, as ContentSummary::ForEachWord
  // does, keeps the insertion order of callers' accumulators.
  for (const auto& [word, stats] : chain[i]->words()) {
    if (!inner) {
      fn(word, stats);
      continue;
    }
    const summary::WordStats level =
        Exclusive(stats, Probe(*chain[i + 1], word));
    if (level.df > 0.0 || level.ctf > 0.0) fn(word, level);
  }
}

}  // namespace

ShrunkSummary::ShrunkSummary(SummaryChain chain, std::vector<double> lambdas,
                             double uniform_probability)
    : chain_(std::move(chain)),
      lambdas_(std::move(lambdas)),
      uniform_probability_(uniform_probability) {
  level_documents_.reserve(chain_.size());
  level_tokens_.reserve(chain_.size());
  for (size_t i = 0; i < chain_.size(); ++i) {
    level_documents_.push_back(LevelDocuments(chain_, i));
    level_tokens_.push_back(LevelTokens(chain_, i));
  }
  // Definition 4 mixture shape: one λ for C0 plus one per chain level, all
  // on the probability simplex. A violation here poisons every score this
  // summary ever produces, so it is checked in all builds.
  FEDSEARCH_CHECK(!chain_.empty());
  FEDSEARCH_CHECK(lambdas_.size() == chain_.size() + 1)
      << " got " << lambdas_.size() << " lambdas for a chain of "
      << chain_.size();
  double sum = 0.0;
  for (double l : lambdas_) {
    FEDSEARCH_CHECK(l >= 0.0 && l <= 1.0 + 1e-9) << " lambda " << l;
    sum += l;
  }
  FEDSEARCH_CHECK(std::fabs(sum - 1.0) < 1e-6)
      << " lambdas sum to " << sum << " after EM";
  FEDSEARCH_CHECK(uniform_probability_ >= 0.0 &&
                  uniform_probability_ <= 1.0);
}

double ShrunkSummary::num_documents() const {
  return chain_.back()->num_documents();
}

double ShrunkSummary::total_tokens() const {
  return chain_.back()->total_tokens();
}

template <typename Fn>
auto ShrunkSummary::WithLevels(const std::string& word, Fn&& fn) const {
  util::SmallBuffer<summary::WordStats, 8> buffer(chain_.size());
  const std::span<summary::WordStats> levels = buffer.span();
  for (size_t i = 0; i < chain_.size(); ++i) {
    levels[i] = Probe(*chain_[i], word);
  }
  return fn(std::span<const summary::WordStats>(levels));
}

ShrunkSummary::Mixture ShrunkSummary::MixtureProbabilities(
    std::span<const summary::WordStats> levels) const {
  FEDSEARCH_DCHECK(levels.size() == chain_.size())
      << " " << levels.size() << " levels for a chain of " << chain_.size();
  double doc = lambdas_[0] * uniform_probability_;
  double token = doc;
  const size_t last = chain_.size() - 1;
  for (size_t i = 0; i <= last; ++i) {
    const summary::WordStats stats =
        i < last ? Exclusive(levels[i], levels[i + 1]) : levels[i];
    doc += lambdas_[i + 1] * Probability(stats.df, level_documents_[i]);
    token += lambdas_[i + 1] * Probability(stats.ctf, level_tokens_[i]);
  }
  FEDSEARCH_DCHECK(doc >= 0.0 && std::isfinite(doc))
      << " mixture doc probability " << doc;
  FEDSEARCH_DCHECK(token >= 0.0 && std::isfinite(token))
      << " mixture token probability " << token;
  return Mixture{std::min(1.0, doc), std::min(1.0, token)};
}

summary::WordStats ShrunkSummary::MixtureStats(
    std::span<const summary::WordStats> levels) const {
  const Mixture p = MixtureProbabilities(levels);
  return summary::WordStats{p.doc * num_documents(),
                            p.token * total_tokens()};
}

double ShrunkSummary::MixtureProbDoc(const std::string& word) const {
  return WithLevels(word, [&](std::span<const summary::WordStats> levels) {
    return MixtureProbabilities(levels).doc;
  });
}

summary::WordStats ShrunkSummary::Stats(const std::string& word) const {
  return WithLevels(word, [&](std::span<const summary::WordStats> levels) {
    return MixtureStats(levels);
  });
}

void ShrunkSummary::ForEachWord(
    const std::function<void(const std::string&, const summary::WordStats&)>&
        fn) const {
  // Union over the level vocabularies, computed in a single accumulation
  // pass (one probe of the next chain summary per level word) instead of
  // re-querying every level per word. The uniform C0 assigns mass to
  // every conceivable word and is by construction not enumerable; it only
  // contributes to the probabilities of enumerated words.
  struct Probs {
    double doc = 0.0;
    double token = 0.0;
  };
  std::unordered_map<std::string, Probs> acc;
  for (size_t i = 0; i < chain_.size(); ++i) {
    const double lambda = lambdas_[i + 1];
    const double n = LevelDocuments(chain_, i);
    const double tokens = LevelTokens(chain_, i);
    if (lambda <= 0.0 || n <= 0.0) continue;
    ForEachLevelWord(chain_, i, [&](const std::string& word,
                                    const summary::WordStats& stats) {
      Probs& p = acc[word];
      p.doc += lambda * std::min(1.0, stats.df / n);
      if (tokens > 0.0) {
        p.token += lambda * std::min(1.0, stats.ctf / tokens);
      }
    });
  }
  const double uniform = lambdas_[0] * uniform_probability_;
  const double n = num_documents();
  const double tokens = total_tokens();
  // ORDER-INDEPENDENT: emission order is a function of `acc`'s contents,
  // which are schedule-independent; consumers (summary builders, metrics)
  // accumulate per-word state, not order-sensitive float reductions.
  for (const auto& [word, probs] : acc) {
    fn(word, summary::WordStats{std::min(1.0, probs.doc + uniform) * n,
                                std::min(1.0, probs.token + uniform) * tokens});
  }
}

size_t ShrunkSummary::vocabulary_size() const {
  std::unordered_set<std::string> words;
  for (size_t i = 0; i < chain_.size(); ++i) {
    ForEachLevelWord(chain_, i,
                     [&](const std::string& word, const summary::WordStats&) {
                       words.insert(word);
                     });
  }
  return words.size();
}

std::vector<double> FitMixtureWeights(const SummaryChain& chain,
                                      double uniform_probability,
                                      size_t sample_size,
                                      const ShrinkageOptions& options) {
  static util::Counter& fits = util::GlobalMetrics().counter("em.fits");
  static util::Counter& converged =
      util::GlobalMetrics().counter("em.converged");
  static util::Histogram& iterations_hist =
      util::GlobalMetrics().histogram("em.iterations");
  static util::Histogram& delta_hist =
      util::GlobalMetrics().histogram("em.final_max_delta_e9");
  static util::Histogram& fit_ns =
      util::GlobalMetrics().histogram("em.fit_ns");
  FEDSEARCH_TRACE_SPAN("em_fit");
  util::ScopedTimer fit_timer(fit_ns);
  fits.Add();

  FEDSEARCH_CHECK(!chain.empty());
  const summary::ContentSummary& database_summary = *chain.back();
  const size_t m = chain.size() - 1;
  const size_t k = m + 2;  // uniform + categories + database
  const double deleted_mass =
      sample_size > 0 ? 1.0 / static_cast<double>(sample_size) : 0.0;

  // Precompute the per-word component probabilities once; the EM loop then
  // touches only this dense matrix. Rows: words of S(D); columns:
  // C0, C1..Cm, D. The database column uses the deleted (cross-validated)
  // estimate, and each word carries its sample document frequency as
  // observation weight — see the header comment.
  std::vector<double> level_documents(chain.size());
  for (size_t i = 0; i < chain.size(); ++i) {
    level_documents[i] = LevelDocuments(chain, i);
  }
  std::vector<double> probs;  // row-major, k columns
  std::vector<double> weights;
  size_t rows = 0;
  database_summary.ForEachWord(
      [&](const std::string& word, const summary::WordStats&) {
        probs.push_back(uniform_probability);
        ForEachLevel(chain, word, [&](size_t i, const summary::WordStats& s) {
          const double p = Probability(s.df, level_documents[i]);
          if (i < m) {
            probs.push_back(p);
            return;
          }
          probs.push_back(std::max(0.0, p - deleted_mass));
          weights.push_back(
              sample_size > 0
                  ? std::max(1.0, p * static_cast<double>(sample_size))
                  : 1.0);
        });
        ++rows;
      });

  std::vector<double> lambdas(k, 1.0 / static_cast<double>(k));
  if (rows == 0) return lambdas;

  std::vector<double> beta(k, 0.0);
  size_t iters_run = 0;
  double last_max_delta = 0.0;
  bool did_converge = false;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++iters_run;
    std::fill(beta.begin(), beta.end(), 0.0);
    // Expectation: β_i = Σ_w weight_w · λ_i p̂(w|C_i) / p̂_R(w|D).
    for (size_t r = 0; r < rows; ++r) {
      const double* row = &probs[r * k];
      double p_r = 0.0;
      for (size_t i = 0; i < k; ++i) p_r += lambdas[i] * row[i];
      if (p_r <= 0.0) continue;
      for (size_t i = 0; i < k; ++i) {
        beta[i] += weights[r] * lambdas[i] * row[i] / p_r;
      }
    }
    // Maximization: λ_i = β_i / Σ_j β_j.
    double total = 0.0;
    for (double b : beta) total += b;
    if (total <= 0.0) break;
    double max_delta = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const double next = beta[i] / total;
      max_delta = std::max(max_delta, std::fabs(next - lambdas[i]));
      lambdas[i] = next;
    }
    last_max_delta = max_delta;
    if (max_delta < options.epsilon) {
      did_converge = true;
      break;
    }
  }
  iterations_hist.Record(iters_run);
  // λ deltas are sub-1.0 doubles; record in integer nano-units so the
  // log-linear buckets resolve the convergence tail.
  delta_hist.Record(static_cast<uint64_t>(last_max_delta * 1e9));
  if (did_converge) converged.Add();
  // Figure 2 post-condition: the M-step renormalizes every iteration, so
  // the returned weights must still lie on the simplex.
  double sum = 0.0;
  for (double l : lambdas) {
    FEDSEARCH_DCHECK(l >= 0.0 && l <= 1.0 + 1e-9) << " lambda " << l;
    sum += l;
  }
  FEDSEARCH_DCHECK(std::fabs(sum - 1.0) < 1e-6)
      << " EM weights sum to " << sum;
  return lambdas;
}

ShrinkageModel::ShrinkageModel(const HierarchySummaries* hierarchy_summaries,
                               std::vector<size_t> sample_sizes,
                               const ShrinkageOptions& options)
    : summaries_(hierarchy_summaries) {
  static util::Histogram& build_ns =
      util::GlobalMetrics().histogram("shrinkage.model_build_ns");
  FEDSEARCH_TRACE_SPAN("shrinkage_model_build");
  util::ScopedTimer build_timer(build_ns);
  const corpus::TopicHierarchy& h = summaries_->hierarchy();
  const size_t n = summaries_->num_databases();
  shrunk_.reserve(n);
  paths_.reserve(n);
  for (size_t db = 0; db < n; ++db) {
    const corpus::CategoryId category = summaries_->classification(db);
    std::vector<corpus::CategoryId> path = h.PathFromRoot(category);

    // The levels' exclusive data is taken from the chain per word
    // (Definition 4's footnote; see SummaryChain).
    SummaryChain chain;
    chain.reserve(path.size() + 1);
    for (corpus::CategoryId c : path) {
      chain.push_back(&summaries_->aggregate(c));
    }
    chain.push_back(&summaries_->database_summary(db));

    const size_t sample_size =
        db < sample_sizes.size() ? sample_sizes[db] : 0;
    std::vector<double> lambdas =
        FitMixtureWeights(chain, summaries_->uniform_probability(),
                          sample_size, options);
    shrunk_.push_back(std::make_unique<ShrunkSummary>(
        std::move(chain), std::move(lambdas),
        summaries_->uniform_probability()));
    paths_.push_back(std::move(path));
  }
}

}  // namespace fedsearch::core
