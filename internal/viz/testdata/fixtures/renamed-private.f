C     T is /B/ storage that callee F declares as W: MAIN's loops name it T.
      PROGRAM MAIN
      COMMON /B/ T(10)
      REAL Y(100)
      INTEGER I, K
      DO 10 I = 1, 100
        DO 5 K = 1, 10
          T(K) = I + K
5       CONTINUE
        Y(I) = T(1) + T(10)
10    CONTINUE
      DO 20 I = 1, 10
        T(I) = Y(I)
20    CONTINUE
      CALL F
      WRITE(*,*) Y(5), T(3)
      END

      SUBROUTINE F
      COMMON /B/ W(10)
      INTEGER J
      DO 30 J = 1, 10
        W(J) = W(J) * 2.0
30    CONTINUE
      END
