; alternating callees from one loop: every other iteration returns
; to a different call site, so the ret edges between fused blocks
; alternate — counters must still match exactly
main:
    mov r5, 0
    mov r6, 8
L:
    and r1, r6, 1
    beqz r1, Leven
    call f1
    jmp Lnext
Leven:
    call f2
Lnext:
    sub r6, r6, 1
    bnez r6, L
    halt r5
f1:
    add r5, r5, 1
    ret
f2:
    add r5, r5, 2
    ret
