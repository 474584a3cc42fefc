; mid-block bounds trap: the store walks off the heap buffer inside
; the loop's fused block, so the trap must surface from generated
; block code with identical (pc, icount) on every engine
main:
    mov r1, 64
    sbrk r1
    setbound r2, r1, 64
    mov r3, 0
L:
    store [r2 + r3], r3
    add r3, r3, 4
    jmp L
