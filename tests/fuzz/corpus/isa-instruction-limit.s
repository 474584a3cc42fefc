; an unbounded loop under a tight instruction limit: the whole-block
; charge would overrun the budget, so the blocks engine must
; single-step and stop at the identical icount/pc
main:
    mov r1, 0
L:
    add r1, r1, 1
    jmp L
