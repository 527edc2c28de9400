#include "textflag.h"

// AVX2 kernels for the actor-critic's hot loops: the GEMMs of the PPO
// update, the A·Bᵀ product behind every forward pass, Adam and tanh. In
// the GEMM, A·Bᵀ and Adam kernels every lane is one independent
// destination element, every multiply-add is a VMULPD then a VADDPD
// (never a fused VFMADD, which rounds once), and every destination
// element keeps its single k-ascending accumulator, so each result is
// bit-identical to the scalar Go loops in kernels.go and optim.go. The
// A·Bᵀ kernel's shuffles (VINSERTF128, VUNPCKLPD/VUNPCKHPD) only move
// operands into those lanes. The tanh kernel instead mirrors
// math.Tanh lane by lane, fusing exactly the multiply-adds math.Exp's
// amd64 assembly fuses on an AVX+FMA CPU; kernels.go runs it only where a
// check at package init finds it equal to math.Tanh.

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

// ABT_T4 transposes the 4×4 block of b at p (rows p, p+R11, p+2·R11 and
// p+R13; R11 = kk·8, R13 = 3·kk·8; four consecutive k) into t0…t3, so
// lane r of tq is row r's k+q element. Each scratch register (xs/ys name
// the same one) packs two elements of rows r and r+2, and
// VUNPCKLPD/VUNPCKHPD interleave them with rows r+1 and r+3. The moves
// only place operands; no lane mixes two destination elements.
#define ABT_T4(p, x0, y0, x1, y1, x2, y2, x3, y3, t0, t1, t2, t3) \
	VMOVUPD     (p), x0; \
	VINSERTF128 $1, (p)(R11*2), y0, y0; \
	VMOVUPD     (p)(R11*1), x1; \
	VINSERTF128 $1, (p)(R13*1), y1, y1; \
	VMOVUPD     16(p), x2; \
	VINSERTF128 $1, 16(p)(R11*2), y2, y2; \
	VMOVUPD     16(p)(R11*1), x3; \
	VINSERTF128 $1, 16(p)(R13*1), y3, y3; \
	VUNPCKLPD   y1, y0, t0; \
	VUNPCKHPD   y1, y0, t1; \
	VUNPCKLPD   y3, y2, t2; \
	VUNPCKHPD   y3, y2, t3

// ABT_G4 gathers one k element of the four rows of b at p into t, for
// the k mod 4 terms past the last 4×4 block. xt and t name one register;
// xs is scratch.
#define ABT_G4(p, xt, t, xs) \
	VMOVSD      (p), xt; \
	VMOVHPD     (p)(R11*1), xt, xt; \
	VMOVSD      (p)(R11*2), xs; \
	VMOVHPD     (p)(R13*1), xs, xs; \
	VINSERTF128 $1, xs, t, t

// ABT_ROWS4 adds a[r][k]·t to row r's accumulator Y0…Y3 for the four
// rows of a at AX, where off is k's byte offset from AX.
#define ABT_ROWS4(off, t) \
	VBROADCASTSD off(AX), Y12; \
	VBROADCASTSD off(AX)(R11*1), Y13; \
	VBROADCASTSD off(AX)(R11*2), Y14; \
	VBROADCASTSD off(AX)(R13*1), Y15; \
	VMULPD       t, Y12, Y12; \
	VMULPD       t, Y13, Y13; \
	VMULPD       t, Y14, Y14; \
	VMULPD       t, Y15, Y15; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y13, Y1, Y1; \
	VADDPD       Y14, Y2, Y2; \
	VADDPD       Y15, Y3, Y3

// ABT_COLS8 adds a[k]·t to Y0 (columns j…j+3) and a[k]·u to Y1 (columns
// j+4…j+7) for the one row of a at AX.
#define ABT_COLS8(off, t, u) \
	VBROADCASTSD off(AX), Y2; \
	VMULPD       t, Y2, Y3; \
	VMULPD       u, Y2, Y2; \
	VADDPD       Y3, Y0, Y0; \
	VADDPD       Y2, Y1, Y1

// ABT_COLS4 adds a[k]·t to Y0 (columns j…j+3) for the one row of a at AX.
#define ABT_COLS4(off, t) \
	VBROADCASTSD off(AX), Y2; \
	VMULPD       t, Y2, Y2; \
	VADDPD       Y2, Y0, Y0

// func mulABTAVX2(c, a, b, bias *float64, m, kk, n int)
//
// c[i*n+j] = Σₖ a[i*kk+k]·b[j*kk+k] + bias[j] for every i < m and every
// j < n &^ 3; the last n mod 4 columns are the caller's. The lanes of a vector are four consecutive columns j…j+3.
// Each lane's accumulator starts at +0 and takes its k terms ascending,
// one VMULPD then one VADDPD each, and the bias is added after the full
// sum, so every element has the bits of kernels.go's mulABTCols. The
// terms come from 4×4 blocks of b transposed in registers (ABT_T4) and
// the k mod 4 trailing ones gathered lane by lane (ABT_G4). Rows run in
// blocks of four as 4×4 tiles, one transposed block serving four rows of
// a; the m mod 4 rows left over run one at a time in 8-column tiles,
// whose two accumulators are independent chains, then in one 4-column
// tile if four columns remain. m and kk must be positive, n at least 4.
TEXT ·mulABTAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ m+32(FP), R8
	MOVQ kk+40(FP), R11
	MOVQ n+48(FP), R10
	MOVQ R10, R12
	ANDQ $-4, R12
	SHLQ $3, R12           // n &^ 3 columns, in bytes
	SHLQ $3, R10           // row stride of c, in bytes
	SHLQ $3, R11           // row stride of a and b, in bytes
	LEAQ (R11)(R11*2), R13 // three rows of a or b, in bytes

abtQuadRows:
	CMPQ R8, $4
	JLT  abtSingleRows
	XORQ BX, BX            // column offset j, in bytes
	MOVQ b+16(FP), R9      // &b[j][0]

abtQuadTile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX          // &a[i][k]
	MOVQ   R9, CX          // &b[j][k]
	MOVQ   kk+40(FP), DX
	SHRQ   $2, DX
	JZ     abtQuadTail

abtQuadTileK:
	ABT_T4(CX, X8, Y8, X9, Y9, X10, Y10, X11, Y11, Y4, Y5, Y6, Y7)
	ABT_ROWS4(0, Y4)
	ABT_ROWS4(8, Y5)
	ABT_ROWS4(16, Y6)
	ABT_ROWS4(24, Y7)
	ADDQ $32, AX
	ADDQ $32, CX
	DECQ DX
	JNZ  abtQuadTileK

abtQuadTail:
	MOVQ kk+40(FP), DX
	ANDQ $3, DX
	JZ   abtQuadBias

abtQuadTailK:
	ABT_G4(CX, X4, Y4, X8)
	ABT_ROWS4(0, Y4)
	ADDQ $8, AX
	ADDQ $8, CX
	DECQ DX
	JNZ  abtQuadTailK

abtQuadBias:
	MOVQ    bias+24(FP), DX
	VMOVUPD (DX)(BX*1), Y8
	VADDPD  Y8, Y0, Y0
	VADDPD  Y8, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y8, Y3, Y3
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R10*1)
	VMOVUPD Y2, (AX)(R10*2)
	LEAQ    (AX)(R10*2), AX
	VMOVUPD Y3, (AX)(R10*1)
	LEAQ    (R9)(R11*4), R9 // the next four rows of b
	ADDQ    $32, BX
	CMPQ    BX, R12
	JLT     abtQuadTile

	LEAQ (DI)(R10*4), DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R8
	JMP  abtQuadRows

abtSingleRows:
	TESTQ R8, R8
	JZ    abtDone
	XORQ  BX, BX
	MOVQ  b+16(FP), R9

abtOct:
	LEAQ   64(BX), AX
	CMPQ   AX, R12
	JGT    abtQuad
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, AX
	MOVQ   R9, CX
	LEAQ   (R9)(R11*4), R14 // &b[j+4][k]
	MOVQ   kk+40(FP), DX
	SHRQ   $2, DX
	JZ     abtOctTail

abtOctK:
	ABT_T4(CX, X12, Y12, X13, Y13, X14, Y14, X15, Y15, Y4, Y5, Y6, Y7)
	ABT_T4(R14, X12, Y12, X13, Y13, X14, Y14, X15, Y15, Y8, Y9, Y10, Y11)
	ABT_COLS8(0, Y4, Y8)
	ABT_COLS8(8, Y5, Y9)
	ABT_COLS8(16, Y6, Y10)
	ABT_COLS8(24, Y7, Y11)
	ADDQ $32, AX
	ADDQ $32, CX
	ADDQ $32, R14
	DECQ DX
	JNZ  abtOctK

abtOctTail:
	MOVQ kk+40(FP), DX
	ANDQ $3, DX
	JZ   abtOctBias

abtOctTailK:
	ABT_G4(CX, X4, Y4, X12)
	ABT_G4(R14, X8, Y8, X13)
	ABT_COLS8(0, Y4, Y8)
	ADDQ $8, AX
	ADDQ $8, CX
	ADDQ $8, R14
	DECQ DX
	JNZ  abtOctTailK

abtOctBias:
	MOVQ    bias+24(FP), DX
	VADDPD  (DX)(BX*1), Y0, Y0
	VADDPD  32(DX)(BX*1), Y1, Y1
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	LEAQ    (R9)(R11*8), R9 // the next eight rows of b
	ADDQ    $64, BX
	JMP     abtOct

abtQuad:
	CMPQ   BX, R12
	JGE    abtSingleDone
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R9, CX
	MOVQ   kk+40(FP), DX
	SHRQ   $2, DX
	JZ     abtQuadColsTail

abtQuadColsK:
	ABT_T4(CX, X12, Y12, X13, Y13, X14, Y14, X15, Y15, Y4, Y5, Y6, Y7)
	ABT_COLS4(0, Y4)
	ABT_COLS4(8, Y5)
	ABT_COLS4(16, Y6)
	ABT_COLS4(24, Y7)
	ADDQ $32, AX
	ADDQ $32, CX
	DECQ DX
	JNZ  abtQuadColsK

abtQuadColsTail:
	MOVQ kk+40(FP), DX
	ANDQ $3, DX
	JZ   abtQuadColsBias

abtQuadColsTailK:
	ABT_G4(CX, X4, Y4, X12)
	ABT_COLS4(0, Y4)
	ADDQ $8, AX
	ADDQ $8, CX
	DECQ DX
	JNZ  abtQuadColsTailK

abtQuadColsBias:
	MOVQ    bias+24(FP), DX
	VADDPD  (DX)(BX*1), Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)

abtSingleDone:
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ R8
	JMP  abtSingleRows

abtDone:
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

// Constants of the tanh kernel, each repeated in four lanes. The
// literals are math/tanh.go's and exp_amd64.s's.
#define TANH_CONST(off, v) \
	DATA tanhconst<>+(off)(SB)/8, v \
	DATA tanhconst<>+(off+8)(SB)/8, v \
	DATA tanhconst<>+(off+16)(SB)/8, v \
	DATA tanhconst<>+(off+24)(SB)/8, v

#define T_ABS 0
#define T_SMALL 32
#define T_LARGE 64
#define T_P0 96
#define T_P1 128
#define T_P2 160
#define T_Q0 192
#define T_Q1 224
#define T_Q2 256
#define T_LOG2E 288
#define T_LN2U 320
#define T_LN2L 352
#define T_SIXTEENTH 384
#define T_E8 416
#define T_E7 448
#define T_E6 480
#define T_E5 512
#define T_E4 544
#define T_E3 576
#define T_HALF 608
#define T_ONE 640
#define T_TWO 672
#define T_BIAS 704

TANH_CONST(T_ABS, $0x7fffffffffffffff)
TANH_CONST(T_SMALL, $0.625)
TANH_CONST(T_LARGE, $0x404601e678fc457b) // 0.5·MAXLOG, MAXLOG = log(2¹²⁷)
TANH_CONST(T_P0, $-9.64399179425052238628e-1)
TANH_CONST(T_P1, $-9.92877231001918586564e1)
TANH_CONST(T_P2, $-1.61468768441708447952e3)
TANH_CONST(T_Q0, $1.12811678491632931402e2)
TANH_CONST(T_Q1, $2.23548839060100448583e3)
TANH_CONST(T_Q2, $4.84406305325125486048e3)
TANH_CONST(T_LOG2E, $1.4426950408889634073599246810018920)
TANH_CONST(T_LN2U, $0.69314718055966295651160180568695068359375)
TANH_CONST(T_LN2L, $0.28235290563031577122588448175013436025525412068e-12)
TANH_CONST(T_SIXTEENTH, $0.0625)
TANH_CONST(T_E8, $2.4801587301587301587e-5)
TANH_CONST(T_E7, $1.9841269841269841270e-4)
TANH_CONST(T_E6, $1.3888888888888888889e-3)
TANH_CONST(T_E5, $8.3333333333333333333e-3)
TANH_CONST(T_E4, $4.1666666666666666667e-2)
TANH_CONST(T_E3, $1.6666666666666666667e-1)
TANH_CONST(T_HALF, $0.5)
TANH_CONST(T_ONE, $1.0)
TANH_CONST(T_TWO, $2.0)
TANH_CONST(T_BIAS, $0x3ff)
GLOBL tanhconst<>(SB), RODATA|NOPTR, $736

// func tanhAVX2(dst, src *float64, n int)
//
// dst[i] = math.Tanh(src[i]) for the first n elements, n a positive
// multiple of 4, four lanes at a time; dst may be src. Per lane, as
// math/tanh.go branches on z = |x|:
//
//	z > 0.5·MAXLOG:  ±1
//	z ≥ 0.625:       ±(1 − 2/(e^(2z) + 1))
//	otherwise:       x + x·s·P(s)/Q(s), s = x², or x itself at ±0
//
// and e^(2z) follows exp_amd64.s's FMA path instruction for instruction:
// k = round(log₂e·t) in CVTSD2SL's nearest-even mode, the fused two-step
// reduction by k·ln2, the fused Taylor polynomial, four squarings and the
// scaling by 2^k (k is 2..127 on this branch, so none of Exp's range
// checks fire). NaN takes the rational branch and stays NaN. A block
// skips the exponential when no lane reaches 0.625 and the rational
// function when every lane does; lanes a branch does not select compute
// garbage that the blends discard.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

tanhLoop:
	VMOVUPD   (SI)(AX*8), Y0                        // x
	VANDPD    tanhconst<>+T_ABS(SB), Y0, Y1         // z = |x|
	VCMPPD    $0x1d, tanhconst<>+T_SMALL(SB), Y1, Y2 // z ≥ 0.625 (GE_OQ)
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JEQ       tanhExp

	VMULPD    Y0, Y0, Y4                            // s = x·x
	VMULPD    Y4, Y0, Y5                            // x·s
	VMOVUPD   tanhconst<>+T_P0(SB), Y3
	VMULPD    Y4, Y3, Y3
	VADDPD    tanhconst<>+T_P1(SB), Y3, Y3
	VMULPD    Y4, Y3, Y3
	VADDPD    tanhconst<>+T_P2(SB), Y3, Y3          // P(s)
	VMULPD    Y5, Y3, Y3                            // x·s·P(s)
	VADDPD    tanhconst<>+T_Q0(SB), Y4, Y6
	VMULPD    Y4, Y6, Y6
	VADDPD    tanhconst<>+T_Q1(SB), Y6, Y6
	VMULPD    Y4, Y6, Y6
	VADDPD    tanhconst<>+T_Q2(SB), Y6, Y6          // Q(s)
	VDIVPD    Y6, Y3, Y3
	VADDPD    Y3, Y0, Y3                            // x + x·s·P(s)/Q(s)
	VXORPD    Y6, Y6, Y6
	VCMPPD    $0x00, Y6, Y0, Y6                     // x == 0 (EQ_OQ)
	VBLENDVPD Y6, Y0, Y3, Y3                        // ±0 returns x
	TESTQ     BX, BX
	JZ        tanhStore

tanhExp:
	VADDPD       Y1, Y1, Y4                           // t = 2z
	VMULPD       tanhconst<>+T_LOG2E(SB), Y4, Y5
	VCVTPD2DQY   Y5, X5                               // k
	VCVTDQ2PD    X5, Y6                               // float64(k)
	VFNMADD231PD tanhconst<>+T_LN2U(SB), Y6, Y4       // t − k·ln2 (upper)
	VFNMADD231PD tanhconst<>+T_LN2L(SB), Y6, Y4       // … − k·ln2 (lower)
	VMULPD       tanhconst<>+T_SIXTEENTH(SB), Y4, Y4  // r
	VMOVUPD      tanhconst<>+T_E8(SB), Y6
	VFMADD213PD  tanhconst<>+T_E7(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_E6(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_E5(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_E4(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_E3(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_HALF(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_ONE(SB), Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       tanhconst<>+T_TWO(SB), Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       tanhconst<>+T_TWO(SB), Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       tanhconst<>+T_TWO(SB), Y4, Y6
	VMULPD       Y6, Y4, Y4
	VADDPD       tanhconst<>+T_TWO(SB), Y4, Y6
	VFMADD213PD  tanhconst<>+T_ONE(SB), Y6, Y4
	VPMOVSXDQ    X5, Y5
	VPADDQ       tanhconst<>+T_BIAS(SB), Y5, Y5
	VPSLLQ       $52, Y5, Y5                          // 2^k
	VMULPD       Y5, Y4, Y4                           // e^t
	VADDPD       tanhconst<>+T_ONE(SB), Y4, Y4
	VMOVUPD      tanhconst<>+T_TWO(SB), Y5
	VDIVPD       Y4, Y5, Y5                           // 2/(e^t + 1)
	VMOVUPD      tanhconst<>+T_ONE(SB), Y4
	VSUBPD       Y5, Y4, Y4                           // 1 − 2/(e^t + 1)
	VXORPD       Y1, Y0, Y5                           // sign of x
	VORPD        Y5, Y4, Y4
	VBLENDVPD    Y2, Y4, Y3, Y3
	VCMPPD       $0x1e, tanhconst<>+T_LARGE(SB), Y1, Y6 // z > 0.5·MAXLOG (GT_OQ)
	VORPD        tanhconst<>+T_ONE(SB), Y5, Y5          // ±1
	VBLENDVPD    Y6, Y5, Y3, Y3

tanhStore:
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tanhLoop

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
