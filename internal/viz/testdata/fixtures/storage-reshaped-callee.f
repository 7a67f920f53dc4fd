C     T is /B/ storage that callee F, called inside MAIN/10, declares as W,
C     and that E declares in other shapes: P covers T's first five cells, Q
C     its last five and three more, and R lies past T's cells. Privatizing
C     T in MAIN/10 warns for F's W and for E's P and Q, not for R.
      PROGRAM MAIN
      COMMON /B/ T(10)
      REAL Y(100)
      INTEGER I
      DO 10 I = 1, 100
        CALL F(I)
        CALL E(I)
        Y(I) = T(1) + T(10)
10    CONTINUE
      WRITE(*,*) Y(5)
      END

      SUBROUTINE F(N)
      INTEGER N
      COMMON /B/ W(10)
      INTEGER J
      DO 30 J = 1, 10
        W(J) = N + J
30    CONTINUE
      END

      SUBROUTINE E(N)
      INTEGER N
      COMMON /B/ P(5), Q(8), R(4)
      R(1) = P(2) + Q(1) + N
      END
