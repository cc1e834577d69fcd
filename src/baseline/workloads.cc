#include "baseline/workloads.hh"

namespace cisram::baseline {

const std::vector<RagCorpusSpec> &
ragCorpora()
{
    static const std::vector<RagCorpusSpec> corpora = {
        {"10GB", 10.0e9, 163000, 368},
        {"50GB", 50.0e9, 819000, 368},
        {"200GB", 200.0e9, 3300000, 368},
    };
    return corpora;
}

namespace {

/** SplitMix64 finalizer: a high-quality stateless mixer. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// Salts keep the clustered model's streams (topic assignment,
// centers, noise, labels) independent of each other and of the
// plain embedding hash under the same corpus seed.
constexpr uint64_t kTopicSalt = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kCenterSalt = 0x165667b19e3779f9ull;
constexpr uint64_t kNoiseSalt = 0x27d4eb2f165667c5ull;
constexpr uint64_t kLabelSalt = 0x9e3779b97f4a7c15ull;

/** Topic-center element in [-5, 5]. */
int16_t
topicCenter(uint64_t topic, uint64_t d, uint64_t seed)
{
    uint64_t h =
        mix(seed ^ kCenterSalt ^ mix(topic * 0x100000001b3ull + d));
    return static_cast<int16_t>(static_cast<int64_t>(h % 11) - 5);
}

} // namespace

int16_t
embeddingValue(uint64_t chunk, uint64_t d, uint64_t seed)
{
    uint64_t h = mix(seed ^ mix(chunk * 0x100000001b3ull + d));
    return static_cast<int16_t>(static_cast<int64_t>(h % 15) - 7);
}

size_t
chunkTopic(uint64_t chunk, uint64_t seed, size_t topics)
{
    return static_cast<size_t>(mix(seed ^ kTopicSalt ^ mix(chunk)) %
                               topics);
}

namespace {

/**
 * Clustered-model element with the topic already resolved. Center in
 * [-5, 5] plus noise in [-2, 2]: the sum stays inside the
 * quantization range [-7, 7], so the exactness budget (golden.hh)
 * holds for clustered corpora too.
 */
int16_t
clusteredValue(uint64_t chunk, uint64_t d, uint64_t seed,
               size_t topic)
{
    uint64_t h = mix(seed ^ kNoiseSalt ^
                     mix(chunk * 0x100000001b3ull + d));
    int16_t noise =
        static_cast<int16_t>(static_cast<int64_t>(h % 5) - 2);
    return static_cast<int16_t>(topicCenter(topic, d, seed) + noise);
}

} // namespace

int16_t
embeddingValueFor(const RagCorpusSpec &spec, uint64_t chunk,
                  uint64_t d, uint64_t seed)
{
    if (spec.topics == 0)
        return embeddingValue(chunk, d, seed);
    return clusteredValue(chunk, d, seed,
                          chunkTopic(chunk, seed, spec.topics));
}

uint16_t
chunkLabel(uint64_t chunk, uint64_t seed)
{
    return static_cast<uint16_t>(mix(seed ^ kLabelSalt ^ mix(chunk)) %
                                 kNumChunkLabels);
}

void
genEmbeddingRow(const RagCorpusSpec &spec, uint64_t chunk,
                uint64_t seed, int16_t *out)
{
    if (spec.topics == 0) {
        for (uint64_t d = 0; d < spec.dim; ++d)
            out[d] = embeddingValue(chunk, d, seed);
        return;
    }
    size_t topic = chunkTopic(chunk, seed, spec.topics);
    for (uint64_t d = 0; d < spec.dim; ++d)
        out[d] = clusteredValue(chunk, d, seed, topic);
}

std::vector<int16_t>
genEmbeddings(const RagCorpusSpec &spec, uint64_t first,
              uint64_t count, uint64_t seed)
{
    std::vector<int16_t> out(count * spec.dim);
    for (uint64_t c = 0; c < count; ++c)
        genEmbeddingRow(spec, first + c, seed,
                        out.data() + c * spec.dim);
    return out;
}

std::vector<int16_t>
genQuery(size_t dim, uint64_t seed)
{
    std::vector<int16_t> q(dim);
    for (size_t d = 0; d < dim; ++d) {
        uint64_t h = mix(seed * 0x9e3779b97f4a7c15ull + d);
        q[d] = static_cast<int16_t>(static_cast<int64_t>(h % 15) - 7);
    }
    return q;
}

std::vector<int16_t>
genQueryForTopic(const RagCorpusSpec &spec, size_t topic,
                 uint64_t seed, uint64_t corpus_seed)
{
    std::vector<int16_t> q(spec.dim);
    if (spec.topics == 0)
        return genQuery(spec.dim, seed);
    // Jitter in [-1, 1]: tighter than the chunks' own noise, so the
    // query's true neighbours concentrate in `topic` but boundary
    // chunks still occasionally rank into other clusters — that is
    // what gives the recall curve its shape below nprobe = K.
    for (size_t d = 0; d < spec.dim; ++d) {
        uint64_t h = mix(seed * 0x9e3779b97f4a7c15ull + d);
        int16_t jitter =
            static_cast<int16_t>(static_cast<int64_t>(h % 3) - 1);
        q[d] = static_cast<int16_t>(
            topicCenter(topic % spec.topics, d, corpus_seed) +
            jitter);
    }
    return q;
}

} // namespace cisram::baseline
