#include "isa/program.hh"

#include <algorithm>

#include "common/log.hh"

namespace wsl {

int
KernelProgram::maxRegister() const
{
    int max_reg = -1;
    for (const auto &inst : body) {
        max_reg = std::max<int>(max_reg, inst.dst);
        max_reg = std::max<int>(max_reg, inst.src0);
        max_reg = std::max<int>(max_reg, inst.src1);
        max_reg = std::max<int>(max_reg, inst.src2);
    }
    return max_reg;
}

unsigned
KernelProgram::countUnit(UnitKind kind) const
{
    return std::count_if(body.begin(), body.end(),
                         [kind](const Instruction &inst) {
                             return unitOf(inst.op) == kind;
                         });
}

void
KernelProgram::validate() const
{
    WSL_ASSERT(!body.empty(), "kernel body must not be empty");
    WSL_ASSERT(loopIters >= 1, "kernel must iterate at least once");
    for (std::size_t i = 0; i < body.size(); ++i) {
        const Instruction &inst = body[i];
        WSL_ASSERT(inst.op != Opcode::Exit,
                   "Exit is implicit after the last iteration");
        if (isLoad(inst.op))
            WSL_ASSERT(inst.dst >= 0, "loads must write a register");
        if (inst.op == Opcode::BraDiv) {
            WSL_ASSERT(inst.branchTarget >
                               static_cast<std::int16_t>(i) &&
                           inst.branchTarget <=
                               static_cast<std::int16_t>(body.size()),
                       "divergent branch must reconverge forward "
                       "within the body");
        }
    }
}

} // namespace wsl
