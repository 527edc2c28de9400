#include "textflag.h"

// AVX2 kernels for the PPO update's hot loops. Every lane is one
// independent destination element, every multiply-add is a VMULPD then a
// VADDPD (never a fused VFMADD, which rounds once), and every destination
// element keeps its single k-ascending accumulator, so each result is
// bit-identical to the scalar Go loops in kernels.go and optim.go.

// func gemmAccAVX2(c, a, b *float64, m, kk, n, ars, aks int)
//
// c[i*n+j] += a[i*ars+k*aks]·b[k*n+j] for every i < m and j < n, one k
// at a time, k ascending. Rows run in blocks of four. Within a block the
// columns run as 4×8 register tiles, whose 32 accumulators stay in Y0–Y7
// across the whole k sweep, then one 4×4 tile if four columns remain,
// then the last n mod 4 columns on scalar lanes. The m mod 4 rows left
// over run the same sweep one row at a time. m, kk and n must be
// positive.
TEXT ·gemmAccAVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ n+40(FP), R10
	MOVQ ars+48(FP), R11
	MOVQ aks+56(FP), R12
	SHLQ $3, R10           // row stride of b and c, in bytes
	SHLQ $3, R11           // row stride of a, in bytes
	SHLQ $3, R12           // k stride of a, in bytes
	LEAQ (R11)(R11*2), R13 // three rows of a, in bytes

quadRows:
	CMPQ R8, $4
	JLT  singleRows
	XORQ BX, BX            // column offset j, in bytes

quadOct:
	LEAQ 64(BX), AX
	CMPQ AX, R10
	JGT  quadVec
	LEAQ (DI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (AX)(R10*1), Y2
	VMOVUPD 32(AX)(R10*1), Y3
	LEAQ (AX)(R10*2), AX
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(R10*1), Y6
	VMOVUPD 32(AX)(R10*1), Y7
	MOVQ SI, AX            // &a[i][k]
	LEAQ (DX)(BX*1), R9    // &b[k][j]
	MOVQ kk+32(FP), CX

quadOctK:
	VMOVUPD      (R9), Y8
	VMOVUPD      32(R9), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (AX)(R11*2), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (AX)(R13*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         R12, AX
	ADDQ         R10, R9
	DECQ         CX
	JNZ          quadOctK

	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R10*1)
	VMOVUPD Y3, 32(AX)(R10*1)
	LEAQ    (AX)(R10*2), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R10*1)
	VMOVUPD Y7, 32(AX)(R10*1)
	ADDQ    $64, BX
	JMP     quadOct

quadVec:
	LEAQ 32(BX), AX
	CMPQ AX, R10
	JGT  quadScalar
	LEAQ (DI)(BX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R10*1), Y1
	LEAQ (AX)(R10*2), AX
	VMOVUPD (AX), Y2
	VMOVUPD (AX)(R10*1), Y3
	MOVQ SI, AX
	LEAQ (DX)(BX*1), R9
	MOVQ kk+32(FP), CX

quadVecK:
	VMOVUPD      (R9), Y4
	VBROADCASTSD (AX), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (AX)(R11*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (AX)(R11*2), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (AX)(R13*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R12, AX
	ADDQ         R10, R9
	DECQ         CX
	JNZ          quadVecK

	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R10*1)
	LEAQ    (AX)(R10*2), AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R10*1)
	ADDQ    $32, BX
	JMP     quadVec

quadScalar:
	CMPQ BX, R10
	JGE  quadDone
	LEAQ (DI)(BX*1), AX
	VMOVSD (AX), X0
	VMOVSD (AX)(R10*1), X1
	LEAQ (AX)(R10*2), AX
	VMOVSD (AX), X2
	VMOVSD (AX)(R10*1), X3
	MOVQ SI, AX
	LEAQ (DX)(BX*1), R9
	MOVQ kk+32(FP), CX

quadScalarK:
	VMOVSD (R9), X4
	VMOVSD (AX), X5
	VMULSD X4, X5, X5
	VADDSD X5, X0, X0
	VMOVSD (AX)(R11*1), X6
	VMULSD X4, X6, X6
	VADDSD X6, X1, X1
	VMOVSD (AX)(R11*2), X7
	VMULSD X4, X7, X7
	VADDSD X7, X2, X2
	VMOVSD (AX)(R13*1), X8
	VMULSD X4, X8, X8
	VADDSD X8, X3, X3
	ADDQ   R12, AX
	ADDQ   R10, R9
	DECQ   CX
	JNZ    quadScalarK

	LEAQ   (DI)(BX*1), AX
	VMOVSD X0, (AX)
	VMOVSD X1, (AX)(R10*1)
	LEAQ   (AX)(R10*2), AX
	VMOVSD X2, (AX)
	VMOVSD X3, (AX)(R10*1)
	ADDQ   $8, BX
	JMP    quadScalar

quadDone:
	LEAQ (DI)(R10*4), DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R8
	JMP  quadRows

singleRows:
	TESTQ R8, R8
	JZ    done
	XORQ  BX, BX

singleVec:
	LEAQ 32(BX), AX
	CMPQ AX, R10
	JGT  singleScalar
	VMOVUPD (DI)(BX*1), Y0
	MOVQ SI, AX
	LEAQ (DX)(BX*1), R9
	MOVQ kk+32(FP), CX

singleVecK:
	VBROADCASTSD (AX), Y5
	VMULPD       (R9), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R12, AX
	ADDQ         R10, R9
	DECQ         CX
	JNZ          singleVecK

	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     singleVec

singleScalar:
	CMPQ BX, R10
	JGE  singleDone
	VMOVSD (DI)(BX*1), X0
	MOVQ SI, AX
	LEAQ (DX)(BX*1), R9
	MOVQ kk+32(FP), CX

singleScalarK:
	VMOVSD (AX), X5
	VMULSD (R9), X5, X5
	VADDSD X5, X0, X0
	ADDQ   R12, AX
	ADDQ   R10, R9
	DECQ   CX
	JNZ    singleScalarK

	VMOVSD X0, (DI)(BX*1)
	ADDQ   $8, BX
	JMP    singleScalar

singleDone:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JMP  singleRows

done:
	VZEROUPPER
	RET

// func adamAVX2(p, grad, m, v *float64, n int, beta1, omb1, beta2, omb2, lr, c1, c2, eps float64)
//
// One bias-corrected Adam step over the first n elements, n a positive
// multiple of 4, in optim.go's operation order:
//
//	m = (β1·m) + ((1−β1)·g)
//	v = (β2·v) + (((1−β2)·g)·g)
//	p = p − ((lr·(m/c1)) / (√(v/c2) + ε))
//
// with omb1 = 1−β1 and omb2 = 1−β2 computed by the caller. VDIVPD and
// VSQRTPD round correctly, so each lane equals DIVSD/SQRTSD.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Y8
	VBROADCASTSD omb1+48(FP), Y9
	VBROADCASTSD beta2+56(FP), Y10
	VBROADCASTSD omb2+64(FP), Y11
	VBROADCASTSD lr+72(FP), Y12
	VBROADCASTSD c1+80(FP), Y13
	VBROADCASTSD c2+88(FP), Y14
	VBROADCASTSD eps+96(FP), Y15
	XORQ         AX, AX

adamLoop:
	VMOVUPD (SI)(AX*8), Y0         // g
	VMULPD  (DX)(AX*8), Y8, Y1     // β1·m
	VMULPD  Y0, Y9, Y2             // (1−β1)·g
	VADDPD  Y2, Y1, Y1             // m
	VMOVUPD Y1, (DX)(AX*8)
	VMULPD  (R8)(AX*8), Y10, Y3    // β2·v
	VMULPD  Y0, Y11, Y4            // (1−β2)·g
	VMULPD  Y0, Y4, Y4             // ((1−β2)·g)·g
	VADDPD  Y4, Y3, Y3             // v
	VMOVUPD Y3, (R8)(AX*8)
	VDIVPD  Y13, Y1, Y1            // m/c1
	VDIVPD  Y14, Y3, Y3            // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3            // √(v/c2) + ε
	VMULPD  Y1, Y12, Y1            // lr·(m/c1)
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5             // p − step
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     adamLoop

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
