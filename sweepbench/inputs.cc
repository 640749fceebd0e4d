#include "inputs.hh"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/strutil.hh"

namespace sweepbench {

namespace {

using fgp::Rng;

/**
 * diff keeps four 128-word line arrays on its heap (bench_asm.cc), so
 * neither file may exceed 128 lines. Scaled line counts stay below this,
 * and insertions stop once the edited copy reaches it.
 */
constexpr std::size_t kDiffMaxLines = 128;

const char *const kWordParts[] = {
    "al", "an", "ar", "as", "at", "ba", "be", "ca", "co", "de", "di",
    "do", "ed", "en", "er", "es", "fa", "go", "ha", "he", "hi", "in",
    "is", "it", "la", "le", "lo", "ma", "me", "mi", "na", "ne", "no",
    "on", "or", "ou", "pa", "pe", "ra", "re", "ri", "ro", "sa", "se",
    "si", "so", "ta", "te", "ti", "to", "un", "ve", "vi", "wa", "we",
};
constexpr std::size_t kNumWordParts =
    sizeof(kWordParts) / sizeof(kWordParts[0]);

std::uint64_t
subSeed(std::uint64_t seed, Set set, std::uint64_t salt)
{
    return seed * 0x9e3779b97f4a7c15ULL ^
           (static_cast<std::uint64_t>(set) << 32 | salt);
}

std::string
randomWord(Rng &rng, int min_parts, int max_parts)
{
    std::string word;
    const int parts = static_cast<int>(rng.range(min_parts, max_parts));
    for (int i = 0; i < parts; ++i)
        word += kWordParts[rng.below(kNumWordParts)];
    return word;
}

std::string
randomLine(Rng &rng, int min_words, int max_words)
{
    std::string line;
    const int words = static_cast<int>(rng.range(min_words, max_words));
    for (int i = 0; i < words; ++i) {
        if (i)
            line += ' ';
        line += randomWord(rng, 1, 4);
    }
    return line;
}

int
scaled(double scale, int base, int min_value)
{
    return std::max(min_value, static_cast<int>(base * scale));
}

std::string
sortInput(Rng &rng, double scale)
{
    const int lines = scaled(scale, 72, 4);
    std::string input;
    for (int i = 0; i < lines; ++i) {
        input += randomLine(rng, 1, 5);
        input += '\n';
    }
    return input;
}

std::string
grepInput(Rng &rng, double scale)
{
    const int lines = scaled(scale, 170, 6);
    // grep searches for the fixed pattern "ard"; plant it in ~1/7 lines.
    static const char *const kPlants[] = {"wizard", "hazard", "garden",
                                          "orchard", "leopard"};
    std::string input;
    for (int i = 0; i < lines; ++i) {
        std::string line = randomLine(rng, 2, 7);
        if (rng.chance(1, 7)) {
            line += ' ';
            line += kPlants[rng.below(5)];
        }
        input += line;
        input += '\n';
    }
    return input;
}

void
diffInputs(Rng &rng, double scale, std::string &file_a, std::string &file_b)
{
    const int lines = std::min(scaled(scale, 46, 4),
                               static_cast<int>(kDiffMaxLines) - 8);
    std::vector<std::string> a;
    for (int i = 0; i < lines; ++i)
        a.push_back(randomLine(rng, 1, 5));

    // b = a with ~20% random edits (delete / insert / replace).
    std::vector<std::string> b;
    for (const std::string &line : a) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 7)
            continue;
        if (roll < 14) {
            b.push_back(randomLine(rng, 1, 5));
            continue;
        }
        b.push_back(line);
        if (roll >= 93) {
            std::string inserted = randomLine(rng, 1, 5);
            if (b.size() < kDiffMaxLines)
                b.push_back(std::move(inserted));
        }
    }
    file_a.clear();
    for (const std::string &line : a)
        file_a += line + '\n';
    file_b.clear();
    for (const std::string &line : b)
        file_b += line + '\n';
}

std::string
cppInput(Rng &rng, double scale)
{
    const int macros = std::clamp(scaled(scale, 12, 2), 2, 48);
    const int lines = scaled(scale, 90, 4);
    std::vector<std::string> names;
    std::string input;
    for (int i = 0; i < macros; ++i) {
        std::string name = "M" + fgp::toUpper(randomWord(rng, 1, 2)) +
                           std::to_string(i);
        names.push_back(name);
        input += "#define " + name + " " + randomLine(rng, 1, 3) + "\n";
    }
    for (int i = 0; i < lines; ++i) {
        std::string line;
        const int tokens = static_cast<int>(rng.range(2, 8));
        for (int t = 0; t < tokens; ++t) {
            if (t)
                line += rng.chance(1, 4) ? "+" : " ";
            if (rng.chance(2, 5))
                line += names[rng.below(names.size())];
            else
                line += randomWord(rng, 1, 3);
        }
        input += line;
        input += '\n';
    }
    return input;
}

std::string
compressInput(Rng &rng, double scale)
{
    const int bytes = scaled(scale, 2600, 64);
    // Repeated phrases so the LZW dictionary earns its keep.
    std::vector<std::string> phrases;
    for (int i = 0; i < 24; ++i)
        phrases.push_back(randomLine(rng, 1, 3));
    std::string input;
    while (static_cast<int>(input.size()) < bytes) {
        if (rng.chance(3, 5))
            input += phrases[rng.below(phrases.size())];
        else
            input += randomWord(rng, 1, 4);
        input += rng.chance(1, 8) ? '\n' : ' ';
    }
    input.resize(static_cast<std::size_t>(bytes));
    return input;
}

} // namespace

void
Inputs::install(fgp::SimOS &os) const
{
    if (files) {
        os.addFile("a.txt", fileA);
        os.addFile("b.txt", fileB);
    } else {
        os.setStdin(stdinText);
    }
}

Inputs
generateInputs(const std::string &program, Set set, double scale,
               std::uint64_t seed)
{
    Inputs in;
    if (program == "sort") {
        Rng rng(subSeed(seed, set, 1));
        in.stdinText = sortInput(rng, scale);
    } else if (program == "grep") {
        Rng rng(subSeed(seed, set, 2));
        in.stdinText = grepInput(rng, scale);
    } else if (program == "diff") {
        Rng rng(subSeed(seed, set, 3));
        in.files = true;
        diffInputs(rng, scale, in.fileA, in.fileB);
    } else if (program == "cpp") {
        Rng rng(subSeed(seed, set, 4));
        in.stdinText = cppInput(rng, scale);
    } else if (program == "compress") {
        Rng rng(subSeed(seed, set, 5));
        in.stdinText = compressInput(rng, scale);
    } else {
        fgp_fatal("unknown program '", program, "'");
    }
    return in;
}

} // namespace sweepbench
