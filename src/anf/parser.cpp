#include "anf/parser.hpp"

#include <cctype>
#include <string>

namespace pd::anf::PD_WIDTH_NS {
namespace {

class Parser {
public:
    Parser(std::string_view text, VarTable& vars) : text_(text), vars_(vars) {}

    Anf run() {
        const Anf e = parseExpr();
        skipSpace();
        if (pos_ != text_.size())
            fail("anf::parse", "trailing input at offset " +
                                   std::to_string(pos_) + ": '" +
                                   std::string(text_.substr(pos_)) + "'");
        return e;
    }

private:
    void skipSpace() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    [[nodiscard]] char peek() {
        skipSpace();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool consume(char c) {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Anf parseExpr() {
        Anf acc = parseTerm();
        while (true) {
            const char c = peek();
            if (c == '^' || c == '+') {
                ++pos_;
                acc ^= parseTerm();
            } else {
                return acc;
            }
        }
    }

    Anf parseTerm() {
        Anf acc = parseFactor();
        while (true) {
            const char c = peek();
            if (c == '*' || c == '&') {
                ++pos_;
                acc *= parseFactor();
            } else {
                return acc;
            }
        }
    }

    Anf parseFactor() {
        const char c = peek();
        if (c == '0') {
            ++pos_;
            return Anf::zero();
        }
        if (c == '1') {
            ++pos_;
            return Anf::one();
        }
        if (c == '(') {
            ++pos_;
            Anf e = parseExpr();
            if (!consume(')')) fail("anf::parse", "expected ')'");
            return e;
        }
        if (c == '~' || c == '!') {
            ++pos_;
            return ~parseFactor();
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            const std::size_t start = pos_;
            while (pos_ < text_.size()) {
                const char d = text_[pos_];
                if (std::isalnum(static_cast<unsigned char>(d)) || d == '_' ||
                    d == '[' || d == ']')
                    ++pos_;
                else
                    break;
            }
            const auto name = text_.substr(start, pos_ - start);
            return Anf::var(vars_.findOrAddInput(name));
        }
        fail("anf::parse", std::string("unexpected character '") + c + "'");
    }

    std::string_view text_;
    VarTable& vars_;
    std::size_t pos_ = 0;
};

}  // namespace

Anf parse(std::string_view text, VarTable& vars) {
    return Parser(text, vars).run();
}

}  // namespace pd::anf::PD_WIDTH_NS
